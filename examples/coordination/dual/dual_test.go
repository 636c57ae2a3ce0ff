package dual_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/ldr/examples/coordination/dual"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

const lat = time.Millisecond

// line builds a 0-1-2-...-n chain with unit costs toward destination 0.
func line(s *sim.Simulator, n int) *dual.Network {
	nw := dual.NewNetwork(s, n, 0, lat)
	for i := 0; i+1 < n; i++ {
		nw.AddLink(i, i+1, 1)
	}
	return nw
}

func settle(s *sim.Simulator) { s.RunAll() }

func TestConvergesOnChain(t *testing.T) {
	s := sim.New()
	nw := line(s, 6)
	settle(s)
	for i := 0; i < 6; i++ {
		if got := nw.Dist(i); got != i {
			t.Fatalf("node %d dist = %d, want %d", i, got, i)
		}
		if nw.Active(i) {
			t.Fatalf("node %d still active after convergence", i)
		}
	}
	if err := nw.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

func TestShortcutImprovesLocally(t *testing.T) {
	s := sim.New()
	nw := line(s, 6)
	settle(s)
	queriesBefore := nw.Messages["query"]

	// A shortcut 0–5 makes node 5's distance 1: strictly better routes
	// always satisfy SNC, so no diffusing computation may start.
	nw.AddLink(0, 5, 1)
	settle(s)

	if got := nw.Dist(5); got != 1 {
		t.Fatalf("node 5 dist = %d, want 1 after shortcut", got)
	}
	if got := nw.Dist(4); got != 2 {
		t.Fatalf("node 4 dist = %d, want 2 via the shortcut", got)
	}
	if nw.Messages["query"] != queriesBefore {
		t.Fatalf("distance improvement triggered %d queries; SNC must allow local update",
			nw.Messages["query"]-queriesBefore)
	}
}

func TestLinkLossForcesDiffusingComputation(t *testing.T) {
	s := sim.New()
	nw := line(s, 5)
	settle(s)
	queriesBefore := nw.Messages["query"]

	// Breaking 0–1 strands everyone: feasible distances cannot admit any
	// successor, so diffusing computations (queries) are mandatory.
	nw.RemoveLink(0, 1)
	settle(s)

	if nw.Messages["query"] == queriesBefore {
		t.Fatal("link loss did not trigger any diffusing computation")
	}
	for i := 1; i < 5; i++ {
		if nw.Dist(i) < dual.Infinity {
			t.Fatalf("node %d still claims distance %d to an unreachable destination", i, nw.Dist(i))
		}
	}
	if err := nw.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

func TestReroutesAroundBreak(t *testing.T) {
	// Ring: 0-1-2-3-4-0. Breaking 0-1 leaves the long way round.
	s := sim.New()
	nw := dual.NewNetwork(s, 5, 0, lat)
	for i := 0; i < 5; i++ {
		nw.AddLink(i, (i+1)%5, 1)
	}
	settle(s)
	if nw.Dist(1) != 1 || nw.Dist(2) != 2 {
		t.Fatalf("ring did not converge: d(1)=%d d(2)=%d", nw.Dist(1), nw.Dist(2))
	}

	nw.RemoveLink(0, 1)
	settle(s)

	// Node 1 now reaches 0 the long way: 1-2-3-4-0 = 4 hops.
	if got := nw.Dist(1); got != 4 {
		t.Fatalf("node 1 dist = %d after break, want 4", got)
	}
	if err := nw.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

// TestLoopFreeUnderRandomChurn is the package's core property: random
// sequences of link additions and removals on random graphs never create
// a successor loop, checked after every quiescent point.
func TestLoopFreeUnderRandomChurn(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		s := sim.New()
		const n = 10
		nw := dual.NewNetwork(s, n, 0, lat)
		type e struct{ a, b int }
		var present []e
		// Start from a random connected-ish graph.
		for i := 1; i < n; i++ {
			a := r.Intn(i)
			nw.AddLink(a, i, 1+r.Intn(3))
			present = append(present, e{a, i})
		}
		settle(s)
		if nw.CheckLoopFree() != nil {
			return false
		}
		for step := 0; step < 30; step++ {
			if len(present) > 0 && r.Float64() < 0.5 {
				i := r.Intn(len(present))
				nw.RemoveLink(present[i].a, present[i].b)
				present = append(present[:i], present[i+1:]...)
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					nw.AddLink(a, b, 1+r.Intn(3))
					present = append(present, e{a, b})
				}
			}
			settle(s)
			if nw.CheckLoopFree() != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinationCostGrowsWithDependentSubtree(t *testing.T) {
	// The paper's point about DUAL/ROAM: a reset synchronizes a whole
	// region. On a long chain, breaking the link next to the destination
	// forces every downstream node through a diffusing computation,
	// so queries scale with the subtree size.
	cost := func(n int) int {
		s := sim.New()
		nw := line(s, n)
		settle(s)
		before := nw.Messages["query"]
		nw.RemoveLink(0, 1)
		settle(s)
		return nw.Messages["query"] - before
	}
	short, long := cost(4), cost(12)
	if long <= short {
		t.Fatalf("queries did not grow with dependent subtree: %d (n=4) vs %d (n=12)", short, long)
	}
}
