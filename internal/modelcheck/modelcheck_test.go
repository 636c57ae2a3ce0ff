package modelcheck

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/loopcheck"
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

func TestCheckRejectsUnsupportedProtocol(t *testing.T) {
	g, _ := NamedTopology("line3")
	_, err := Check(&Scenario{Graph: g, Protocol: "dsr", Seed: 1}, Options{MaxDepth: 2})
	if err == nil || !strings.Contains(err.Error(), "ModelStater") {
		t.Fatalf("Check(dsr) error = %v, want a ModelStater complaint", err)
	}
}

// TestCheckLeavesScenarioAlone: Check used to write DefaultFlows into the
// caller's Scenario; the flows it explored are on the result's copy.
func TestCheckLeavesScenarioAlone(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1}
	res, err := Check(sc, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flows != nil {
		t.Errorf("Check wrote %v into the caller's Scenario.Flows", sc.Flows)
	}
	if len(res.Scenario.Flows) != g.N-1 {
		t.Errorf("Result.Scenario.Flows = %v, want the %d default flows", res.Scenario.Flows, g.N-1)
	}
}

// TestEncoderDeterminism guards state-key stability: bringing three
// fresh worlds to the same trace must produce identical keys (the BFS
// relies on this to dedupe), even though the encoder walks Go maps
// internally.
func TestEncoderDeterminism(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1, Flows: DefaultFlows(g)}
	trace := []Action{
		{Kind: ActOriginate, Flow: 0},
		{Kind: ActDeliver, From: 0, To: 1},
		{Kind: ActDeliver, From: 1, To: 2},
	}
	var keys []stateKey
	for i := 0; i < 3; i++ {
		cur, err := newCursor(sc)
		if err != nil {
			t.Fatal(err)
		}
		cur.seek(trace)
		keys = append(keys, cur.key(budgets{}))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("same trace produced distinct state keys: %x %x %x", keys[0], keys[1], keys[2])
	}
}

// wantExploration pins an exploration's exact size. The search is
// deterministic, so a change to the protocols or to their model-state
// encoding that merges or splits states moves the counts, and a change to
// the sleep sets' independence relation or action identity moves the
// transitions. TestReductionKeepsEveryState pins the unreduced triples.
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
	wantExploration(t, res, 7428, 13107, 12)
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
	wantExploration(t, res, 2521, 4058, 12)
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
	wantExploration(t, res, 14056, 20017, 10)
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
	wantExploration(t, res, 2506, 3369, 8)

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

// TestKeysDoNotCollide runs the pinned explorations, and the benchmark's
// two graphs at its tiny scale, without sleep sets and with the visited
// set keyed by the serialization itself (refEncode) instead of the
// state's key, stopping at its own first loopcheck violation: Check must
// find as many states, as deep, with a violation where this search finds
// one, and no two serializations may share a key. A serialization reached
// again — by another path, so from other saved records, another live node
// and other queue orders — must have the key it had. Nor may two item
// encodings met on the way share the hash the sleep sets name an item's
// actions by.
func TestKeysDoNotCollide(t *testing.T) {
	type cell struct {
		topo, proto string
		opts        Options
	}
	cells := []cell{
		{"line3", "ldr", Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}},
		{"line3", "ldr", Options{MaxDepth: 12, MaxVResets: 1}},
		{"n4-1", "ldr", Options{MaxDepth: 10, MaxResets: 1}},
		{"line3", "aodv", Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}},
		{"n3-0", "ldr", Options{MaxDepth: 6, MaxResets: 1, MaxDrops: 1}},
		{"n3-1", "ldr", Options{MaxDepth: 6, MaxResets: 1, MaxDrops: 1}},
	}
	for _, c := range cells {
		g, err := NamedTopology(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		sc := &Scenario{Graph: g, Protocol: c.proto, Seed: 1, Flows: DefaultFlows(g)}
		res, err := Check(sc, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := newCursor(sc)
		if err != nil {
			t.Fatal(err)
		}
		opts := c.opts.withDefaults()
		keyOf := map[string]stateKey{}
		bytesOf := map[stateKey]string{}
		// visit reports whether the world's present state is new.
		visit := func(rem budgets) bool {
			b, k := string(refEncode(cur.w, rem)), cur.key(rem)
			if prev, ok := keyOf[b]; ok {
				if prev != k {
					t.Fatalf("%s %s: serialization %x had key %x, and now %x", c.proto, g, b, prev, k)
				}
				return false
			}
			if other, ok := bytesOf[k]; ok {
				t.Fatalf("%s %s: key %x for both %x and %x", c.proto, g, k, other, b)
			}
			keyOf[b], bytesOf[k] = k, b
			return true
		}
		// itemOf is every item encoding met, by the hash in its actions' IDs.
		itemOf := map[uint64]string{}
		checker := loopcheck.NewChecker()
		visit(opts.remaining(used{}))
		traces := [][]Action{nil}
		depth, violated := 0, false
	search:
		for idx := 0; idx < len(traces); idx++ {
			trace := traces[idx]
			depth = max(depth, len(trace))
			if len(trace) >= opts.MaxDepth {
				continue
			}
			cur.seek(trace)
			for _, a := range cur.w.enabled(nil, opts.remaining(usedBy(trace))) {
				if a.Kind == ActDeliver {
					item := string(new(encoder).encodeItem(nil, cur.w.pending[int(a.From)*g.N+int(a.To)][a.Index]))
					h := uint64(cur.id(a)) & idLow
					if other, ok := itemOf[h]; ok && other != item {
						t.Fatalf("%s %s: items %x and %x share the identity hash %x", c.proto, g, other, item, h)
					}
					itemOf[h] = item
				}
				cur.w.apply(a)
				if len(checker.CheckTables(cur.tables())) > 0 {
					violated = true
					break search // the search stops at this state, before keying it
				}
				child := append(slices.Clone(trace), a)
				if visit(opts.remaining(usedBy(child))) {
					traces = append(traces, child)
				}
				cur.back()
			}
		}
		if len(traces) != res.States || depth != res.Depth || violated != (res.Violation != nil) {
			t.Errorf("%s %s: keyed by bytes the search finds (states, depth, violation) = (%d, %d, %v), keyed by hash (%d, %d, %v)",
				c.proto, g, len(traces), depth, violated, res.States, res.Depth, res.Violation != nil)
		}
	}
}
