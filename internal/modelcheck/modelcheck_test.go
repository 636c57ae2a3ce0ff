package modelcheck

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/conformance"
)

func TestConnectedGraphCounts(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{2, 1}, {3, 2}, {4, 6}, {5, 21}} {
		gs, err := ConnectedGraphs(tc.n)
		if err != nil {
			t.Fatalf("ConnectedGraphs(%d): %v", tc.n, err)
		}
		if len(gs) != tc.want {
			t.Errorf("ConnectedGraphs(%d) = %d graphs, want %d", tc.n, len(gs), tc.want)
		}
	}
}

func TestNamedTopology(t *testing.T) {
	for name, g := range namedTopologies {
		got, err := NamedTopology(name)
		if err != nil {
			t.Fatalf("NamedTopology(%q): %v", name, err)
		}
		if got.N != g.N || len(got.Edges) != len(g.Edges) {
			t.Errorf("NamedTopology(%q) = %v", name, got)
		}
	}
	if g, err := NamedTopology("n4-2"); err != nil || g.N != 4 {
		t.Errorf("NamedTopology(n4-2) = %v, %v", g, err)
	}
	if _, err := NamedTopology("n4-99"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("NamedTopology(n4-99) error = %v, want out-of-range", err)
	}
	if _, err := NamedTopology("pentagon"); err == nil || !strings.Contains(err.Error(), "line3") {
		t.Errorf("NamedTopology(pentagon) error = %v, want a list of valid names", err)
	}
}

// TestLayoutsRealizeSweepDomain pins the property witness replay depends
// on: every graph in the checker's sweep domain (all connected 3- and
// 4-node graphs) and every named 5-node shape has a unit-disk layout
// under the simulator's default radio range.
func TestLayoutsRealizeSweepDomain(t *testing.T) {
	graphs, err := SweepGraphs(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"line5", "ring5"} {
		g, err := NamedTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		pts, err := Layout(g)
		if err != nil {
			t.Errorf("Layout(%s): %v", g, err)
			continue
		}
		if len(pts) != g.N {
			t.Errorf("Layout(%s): %d points for %d nodes", g, len(pts), g.N)
		}
	}
}

func TestSupports(t *testing.T) {
	for name, want := range map[string]bool{"ldr": true, "aodv": true, "dsr": false, "olsr": false} {
		if got := Supports(name); got != want {
			t.Errorf("Supports(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestCheckRejectsUnsupportedProtocol(t *testing.T) {
	g, _ := NamedTopology("line3")
	_, err := Check(&Scenario{Graph: g, Protocol: "dsr", Seed: 1}, Options{MaxDepth: 2})
	if err == nil || !strings.Contains(err.Error(), "ModelStater") {
		t.Fatalf("Check(dsr) error = %v, want a ModelStater complaint", err)
	}
}

// TestEncoderDeterminism guards state-key stability: materializing the
// same trace twice must produce identical keys (the BFS relies on this
// to dedupe), even though the encoder walks Go maps internally.
func TestEncoderDeterminism(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1, Flows: DefaultFlows(g)}
	trace := []Action{
		{Kind: ActOriginate, Flow: 0},
		{Kind: ActDeliver, From: 0, To: 1},
		{Kind: ActDeliver, From: 1, To: 2},
	}
	enc := newEncoder(g.N, automorphisms(g, []int{0, 1, 2}))
	var keys []stateKey
	for i := 0; i < 3; i++ {
		keys = append(keys, enc.key(materialize(t, sc, trace), budgets{}))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("same trace produced distinct state keys: %x %x %x", keys[0], keys[1], keys[2])
	}
}

// wantExploration pins an exploration's exact size. The search is
// deterministic, so a change to the protocols or to their model-state
// encoding that merges or splits states moves the counts.
func wantExploration(t *testing.T, res *Result, states, transitions, depth int) {
	t.Helper()
	if res.States != states || res.Transitions != transitions || res.Depth != depth {
		t.Errorf("explored (states, transitions, depth) = (%d, %d, %d), want (%d, %d, %d)",
			res.States, res.Transitions, res.Depth, states, transitions, depth)
	}
}

// TestLDRLine3Clean is the checker's positive verdict at the van
// Glabbeek regime: on the 3-node line with a crash-reboot and a message
// loss in the budget, LDR's bounded state space contains no loop or
// ordering violation. (The identical budget finds the AODV loop — see
// TestAODVLine3Violation — so the clean verdict is not vacuous.)
func TestLDRLine3Clean(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1}
	res, err := Check(sc, Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%s", res.States, res.Transitions, res.Depth, res.Elapsed)
	if res.Violation != nil {
		t.Fatalf("LDR violated an invariant:\n%s", res.Violation)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the verdict is not exhaustive")
	}
	wantExploration(t, res, 7428, 26251, 12)
}

// TestLDRVolatileLine3Clean explores the regime the paper's §5 storage
// prescription exists for: a crash that wipes the stable store too.
// Within these budgets LDR still holds its invariants — the
// request-as-error rule blocks the stale-route reply that seeds AODV's
// loop — which the checker verifies rather than assumes.
func TestLDRVolatileLine3Clean(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1}
	res, err := Check(sc, Options{MaxDepth: 12, MaxVResets: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%s", res.States, res.Transitions, res.Depth, res.Elapsed)
	if res.Violation != nil {
		t.Fatalf("volatile LDR violated an invariant:\n%s", res.Violation)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the verdict is not exhaustive")
	}
	wantExploration(t, res, 2521, 7442, 12)
}

// TestLDRPaw4Clean keeps one 4-node topology in the fast suite (the paw:
// a triangle with a pendant node). The full 4-node sweep runs under
// `make modelcheck`.
func TestLDRPaw4Clean(t *testing.T) {
	g, err := NamedTopology("n4-1")
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1}
	res, err := Check(sc, Options{MaxDepth: 10, MaxResets: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%s", res.States, res.Transitions, res.Depth, res.Elapsed)
	if res.Violation != nil {
		t.Fatalf("LDR violated an invariant on %s:\n%s", g, res.Violation)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the verdict is not exhaustive")
	}
	wantExploration(t, res, 14056, 45854, 10)
}

// TestAODVLine3Violation is the checker's negative control and the
// acceptance path in one: the checker must REdiscover the van Glabbeek
// et al. AODV loop on the 3-node line from nothing but the protocol
// implementation and the budgets, and the emitted witness spec must
// replay to a real routing loop under the full MAC/radio simulator.
func TestAODVLine3Violation(t *testing.T) {
	g, err := NamedTopology("line3")
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Graph: g, Protocol: "aodv", Seed: 1}
	res, err := Check(sc, Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%s", res.States, res.Transitions, res.Depth, res.Elapsed)
	if res.Violation == nil {
		t.Fatal("expected AODV loop violation on line3, found none")
	}
	t.Logf("witness:\n%s", res.Violation)
	wantExploration(t, res, 2506, 6477, 8)

	// The BFS finds a minimal-length schedule; the known construction
	// needs a crash plus one message suppression, nothing more.
	if len(res.Violation.Trace) > 10 {
		t.Errorf("witness has %d steps; the van Glabbeek schedule needs at most 10", len(res.Violation.Trace))
	}

	spec, err := res.Violation.Spec("checker-emitted witness")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.MarshalIndent(spec, "", "  ")
	t.Logf("spec:\n%s", raw)
	rep, err := conformance.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replay: loops=%d violations=%d", rep.Collector.LoopViolations, rep.Total)
	if rep.Collector.LoopViolations == 0 {
		t.Fatal("witness replay under the full simulator produced no loop")
	}
}
