package olsr_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/routing"
)

// isolated returns an OLSR instance whose control plane is driven by
// hand-crafted messages (the node exists but the scenario keeps every
// other node out of radio range, so nothing real interferes).
func isolated(seed int64) (*routing.Network, *olsr.OLSR) {
	nw := routing.NewNetwork(1, mobility.Line(1, 250), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return olsr.New(node, olsr.DefaultConfig())
		})
	return nw, nw.Nodes[0].Protocol().(*olsr.OLSR)
}

// hello crafts a HELLO from `from` listing the given symmetric neighbors.
func hello(from routing.NodeID, sym ...routing.NodeID) *olsr.Hello {
	h := &olsr.Hello{Origin: from}
	for _, n := range sym {
		h.Neighbors = append(h.Neighbors, olsr.HelloNeighbor{ID: n, Code: olsr.LinkSym})
	}
	return h
}

func TestLinkBecomesSymmetricOnEcho(t *testing.T) {
	nw, p := isolated(1)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		// First HELLO from node 1 does not list us: asymmetric.
		p.HandleControl(1, hello(1, 99))
		if _, _, ok := p.RouteTo(1); ok {
			t.Error("asymmetric link produced a route")
		}
		// Second HELLO lists us: now symmetric, one-hop route appears.
		p.HandleControl(1, hello(1, 0))
		if next, hops, ok := p.RouteTo(1); !ok || next != 1 || hops != 1 {
			t.Errorf("symmetric neighbor route = (%d,%d,%v)", next, hops, ok)
		}
	})
	nw.Sim.Run(time.Second)
}

// TestOLSRRefusesOneWayLinks pins RFC 3626 link sensing, which gates
// every first contact: a HELLO that does not list the receiver leaves the
// link asymmetric, so no route crosses it and data toward the far end
// fails at the source as no-route instead of going to a next hop that
// cannot answer. The first HELLO from the far side that lists the
// receiver makes the link symmetric.
func TestOLSRRefusesOneWayLinks(t *testing.T) {
	nw := routing.NewNetwork(3, mobility.Line(3, 1000), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			return olsr.New(node, olsr.DefaultConfig())
		})
	p1 := nw.Nodes[1].Protocol().(*olsr.OLSR)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		p1.HandleControl(2, hello(2, 0))
		if next, _, ok := p1.RouteTo(2); ok {
			t.Errorf("node 1 routes to 2 via %d over a one-way link", next)
		}
		nw.Nodes[1].OriginateData(2, 512)
	})
	nw.Sim.Run(time.Second)
	if got := nw.Collector.DroppedBy(metrics.DropNoRoute); got != 1 {
		t.Fatalf("%d no-route drops, want the one packet sent across the one-way link", got)
	}
	nw.Sim.Schedule(0, func() {
		p1.HandleControl(2, hello(2, 1))
		if next, hops, ok := p1.RouteTo(2); !ok || next != 2 || hops != 1 {
			t.Errorf("route to 2 once its HELLO lists node 1 = (%d,%d,%v), want (2,1,true)", next, hops, ok)
		}
	})
	nw.Sim.Run(nw.Sim.Now() + time.Second)
}

func TestTwoHopRouteViaNeighborHello(t *testing.T) {
	nw, p := isolated(2)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		p.HandleControl(1, hello(1, 0, 5)) // neighbor 1 also hears node 5
		next, hops, ok := p.RouteTo(5)
		if !ok || next != 1 || hops != 2 {
			t.Errorf("two-hop route = (%d,%d,%v), want via 1 in 2 hops", next, hops, ok)
		}
	})
	nw.Sim.Run(time.Second)
}

func TestTopologyRouteViaTC(t *testing.T) {
	nw, p := isolated(3)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		p.HandleControl(1, hello(1, 0))
		p.HandleControl(1, hello(1, 0, 7))
		// Node 7 (2 hops away) advertises selector 9 via a TC relayed to us.
		p.HandleControl(1, &olsr.TC{Origin: 7, Seq: 1, ANSN: 1, Selectors: []routing.NodeID{9}, TTL: 10})
		next, hops, ok := p.RouteTo(9)
		if !ok || next != 1 || hops != 3 {
			t.Errorf("TC-derived route = (%d,%d,%v), want via 1 in 3 hops", next, hops, ok)
		}
	})
	nw.Sim.Run(time.Second)
}

func TestTCIgnoredFromAsymmetricLink(t *testing.T) {
	nw, p := isolated(4)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		// No HELLO exchange: link to node 1 is not symmetric.
		p.HandleControl(1, &olsr.TC{Origin: 7, Seq: 1, ANSN: 1, Selectors: []routing.NodeID{9}, TTL: 10})
		if _, _, ok := p.RouteTo(9); ok {
			t.Error("TC over an asymmetric link installed topology")
		}
	})
	nw.Sim.Run(time.Second)
}

func TestMPRSelectionCoversTwoHopSet(t *testing.T) {
	nw, p := isolated(5)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		// Neighbor 1 reaches {10, 11}; neighbor 2 reaches {11}; neighbor 3
		// reaches {12}. Minimal cover: {1, 3}.
		p.HandleControl(1, hello(1, 0, 10, 11))
		p.HandleControl(2, hello(2, 0, 11))
		p.HandleControl(3, hello(3, 0, 12))
	})
	// MPRs are recomputed on the HELLO timer; wait one period.
	nw.Sim.Run(3 * time.Second)

	mprs := p.MPRs()
	want := map[routing.NodeID]bool{1: true, 3: true}
	if len(mprs) != 2 {
		t.Fatalf("MPRs = %v, want exactly {1, 3}", mprs)
	}
	for _, m := range mprs {
		if !want[m] {
			t.Fatalf("MPRs = %v, want {1, 3}", mprs)
		}
	}
}

func TestNeighborExpiryDropsRoutes(t *testing.T) {
	nw, p := isolated(6)
	nw.Start()
	nw.Sim.Schedule(0, func() { p.HandleControl(1, hello(1, 0)) })
	// NeighborHold is 6 s; after 8 s with no HELLO the link must be gone.
	nw.Sim.Run(8 * time.Second)
	if _, _, ok := p.RouteTo(1); ok {
		t.Fatal("expired neighbor still routed")
	}
}

func TestDuplicateTCNotReprocessed(t *testing.T) {
	nw, p := isolated(7)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		p.HandleControl(1, hello(1, 0, 7))
		tc := &olsr.TC{Origin: 7, Seq: 5, ANSN: 2, Selectors: []routing.NodeID{9}, TTL: 10}
		p.HandleControl(1, tc)
		// A duplicate with different content must be ignored (same Seq).
		dup := &olsr.TC{Origin: 7, Seq: 5, ANSN: 3, Selectors: []routing.NodeID{13}, TTL: 10}
		p.HandleControl(1, dup)
		if _, _, ok := p.RouteTo(13); ok {
			t.Error("duplicate TC was processed")
		}
		if _, _, ok := p.RouteTo(9); !ok {
			t.Error("original TC content lost")
		}
	})
	nw.Sim.Run(time.Second)
}

// TestTCStalenessComparesOriginatorsOwnANSN pins RFC 3626 §9.5 step 2: a
// TC is stale only against the ANSN its own originator last advertised
// (T_last_addr == originator). The counters of other nodes that happen to
// advertise that originator as a selector say nothing about it.
func TestTCStalenessComparesOriginatorsOwnANSN(t *testing.T) {
	const a, b = 7, 8
	nw, p := isolated(8)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		p.HandleControl(1, hello(1, 0, a, b))
		// B advertises A, with a counter far ahead of A's own.
		p.HandleControl(1, &olsr.TC{Origin: b, Seq: 1, ANSN: 9, Selectors: []routing.NodeID{a}, TTL: 10})
		p.HandleControl(1, &olsr.TC{Origin: a, Seq: 1, ANSN: 3, Selectors: []routing.NodeID{20}, TTL: 10})
		if next, hops, ok := p.RouteTo(20); !ok || next != 1 || hops != 3 {
			t.Errorf("A's TC (ANSN 3) refused because B advertises A with ANSN 9: route = (%d,%d,%v)", next, hops, ok)
		}
		// A's own older advertisement is what the check is for.
		p.HandleControl(1, &olsr.TC{Origin: a, Seq: 2, ANSN: 2, Selectors: []routing.NodeID{21}, TTL: 10})
		if _, _, ok := p.RouteTo(21); ok {
			t.Error("A's TC with ANSN 2 accepted after ANSN 3")
		}
		if _, _, ok := p.RouteTo(20); !ok {
			t.Error("stale TC displaced A's current advertisement")
		}
	})
	nw.Sim.Run(time.Second)
}
