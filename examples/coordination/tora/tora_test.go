package tora_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/manetlab/ldr/examples/coordination/tora"
	"github.com/manetlab/ldr/internal/rng"
)

// ring builds a cycle of n nodes with destination 0.
func ring(n int, v tora.Variant) *tora.Network {
	nw := tora.New(n, 0, v)
	for i := 0; i < n; i++ {
		nw.AddLink(i, (i+1)%n)
	}
	nw.Stabilize()
	return nw
}

func TestInitialOrientationRoutesEverything(t *testing.T) {
	for _, v := range []tora.Variant{tora.FullReversal, tora.PartialReversal} {
		nw := ring(6, v)
		if err := nw.CheckDAG(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 6; i++ {
			if !nw.RouteExists(i) {
				t.Fatalf("variant %d: node %d has no downhill route", v, i)
			}
		}
	}
}

func TestReversalRepairsAfterLinkLoss(t *testing.T) {
	for _, v := range []tora.Variant{tora.FullReversal, tora.PartialReversal} {
		nw := ring(8, v)
		// Cut one of the destination's links; the nodes that drained
		// through it must reverse until they point the long way round.
		nw.RemoveLink(0, 1)
		nw.Stabilize()
		if err := nw.CheckDAG(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 8; i++ {
			if !nw.RouteExists(i) {
				t.Fatalf("variant %d: node %d stranded after repair", v, i)
			}
		}
		if nw.Reversals == 0 {
			t.Fatalf("variant %d: repair required no reversals?", v)
		}
	}
}

func TestPartialReversalTouchesFewerNodes(t *testing.T) {
	// The selling point of partial reversal: smaller reaction region.
	// On a long cycle, cutting next to the destination makes full
	// reversal churn at least as much as partial.
	full := ring(20, tora.FullReversal)
	full.RemoveLink(0, 1)
	full.Stabilize()

	part := ring(20, tora.PartialReversal)
	part.RemoveLink(0, 1)
	part.Stabilize()

	if part.Reversals > full.Reversals {
		t.Fatalf("partial reversal (%d) churned more than full (%d)",
			part.Reversals, full.Reversals)
	}
}

func TestPartitionDoesNotLivelock(t *testing.T) {
	nw := tora.New(4, 0, tora.FullReversal)
	nw.AddLink(0, 1)
	nw.AddLink(2, 3) // island without the destination
	rounds := nw.Stabilize()
	if rounds > 4 {
		t.Fatalf("partitioned island caused %d rounds", rounds)
	}
	if nw.RouteExists(2) {
		t.Fatal("partitioned node claims a route")
	}
}

func TestHeightOrderingIsTotal(t *testing.T) {
	f := func(a1, b1, a2, b2 int8, id1, id2 uint8) bool {
		h1 := tora.Height{A: int(a1), B: int(b1), ID: int(id1)}
		h2 := tora.Height{A: int(a2), B: int(b2), ID: int(id2)}
		if h1 == h2 {
			return !h1.Less(h2) && !h2.Less(h1)
		}
		return h1.Less(h2) != h2.Less(h1) // exactly one direction
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomChurnKeepsDestinationOrientation: under random link churn on
// random graphs, stabilization always terminates, the orientation stays a
// DAG, and every connected node has a route.
func TestRandomChurnKeepsDestinationOrientation(t *testing.T) {
	f := func(seed int64, variantBit bool) bool {
		v := tora.FullReversal
		if variantBit {
			v = tora.PartialReversal
		}
		r := rng.New(seed)
		const n = 12
		nw := tora.New(n, 0, v)
		type e struct{ a, b int }
		var present []e
		for i := 1; i < n; i++ {
			a := r.Intn(i)
			nw.AddLink(a, i)
			present = append(present, e{a, i})
		}
		nw.Stabilize()
		for step := 0; step < 25; step++ {
			if len(present) > 0 && r.Float64() < 0.45 {
				i := r.Intn(len(present))
				nw.RemoveLink(present[i].a, present[i].b)
				present = append(present[:i], present[i+1:]...)
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					nw.AddLink(a, b)
					present = append(present, e{a, b})
				}
			}
			nw.Stabilize()
			if nw.CheckDAG() != nil {
				return false
			}
			for id := 1; id < n; id++ {
				if nw.Connected(id) != nw.RouteExists(id) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
