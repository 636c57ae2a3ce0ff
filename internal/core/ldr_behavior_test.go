package core_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// buildNet creates an LDR network over the given mobility model.
func buildNet(model mobility.Model, seed int64, cfg core.Config) *routing.Network {
	return routing.NewNetwork(model.NumNodes(), model, mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return core.New(node, cfg)
		})
}

func ldrAt(nw *routing.Network, id int) *core.LDR {
	return nw.Nodes[id].Protocol().(*core.LDR)
}

// keepTraffic schedules periodic packets src→dst over [from, to).
func keepTraffic(nw *routing.Network, src, dst int, from, to, every time.Duration) {
	for t := from; t < to; t += every {
		nw.Sim.At(t, func() { nw.Nodes[src].OriginateData(routing.NodeID(dst), 64) })
	}
}

// TestDestinationResetRaisesSequenceNumber reproduces the T-bit reset: a
// node whose feasible distance became very strong (fd=1) moves away; its
// rediscovery cannot be answered by intermediates and only a
// destination-controlled sequence-number increment can reset the path.
func TestDestinationResetRaisesSequenceNumber(t *testing.T) {
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0, Y: 0}}},   // 0: destination T
		{{At: 0, Pos: mobility.Point{X: 250, Y: 0}}}, // 1: D
		{{At: 0, Pos: mobility.Point{X: 500, Y: 0}}}, // 2: C
		{{At: 0, Pos: mobility.Point{X: 750, Y: 0}}}, // 3: B
		{ // 4: E roams from T's side to the far end
			{At: 0, Pos: mobility.Point{X: 250, Y: 100}},
			{At: 10 * time.Second, Pos: mobility.Point{X: 250, Y: 100}},
			{At: 18 * time.Second, Pos: mobility.Point{X: 1000, Y: 0}},
		},
	}
	nw := buildNet(mobility.NewScript(tracks), 3, core.DefaultConfig())
	nw.Start()
	keepTraffic(nw, 4, 0, time.Second, 40*time.Second, 200*time.Millisecond)

	var fdBefore int
	nw.Sim.At(8*time.Second, func() { fdBefore = ldrAt(nw, 4).FeasibleDistance(0) })
	nw.Sim.Run(40 * time.Second)

	if fdBefore != 1 {
		t.Fatalf("E's feasible distance beside T = %d, want 1", fdBefore)
	}
	dest := ldrAt(nw, 0)
	if dest.OwnSeq().Counter() == 0 {
		t.Fatal("destination never incremented its sequence number: the reset path did not run")
	}
	// After the reset E must have a working route again.
	if _, dist, ok := ldrAt(nw, 4).RouteTo(0); !ok || dist != 4 {
		t.Fatalf("E's post-reset route: dist=%d ok=%v, want 4 hops", dist, ok)
	}
	// And data kept flowing after the move.
	if ratio := nw.Collector.DeliveryRatio(); ratio < 0.80 {
		t.Fatalf("delivery across the reset = %.2f, want ≥ 0.80", ratio)
	}
}

// TestNoThirdPartyIncrementsSequenceNumbers is the structural contrast
// with AODV: across an entire mobile run, every node's stored sequence
// number for a destination never exceeds what that destination issued.
func TestNoThirdPartyIncrementsSequenceNumbers(t *testing.T) {
	cfg := core.DefaultConfig()
	model := mobility.NewWaypoint(15, mobility.WaypointConfig{
		Terrain:  mobility.Terrain{Width: 1000, Height: 300},
		MinSpeed: 1, MaxSpeed: 20, Pause: 0,
	}, rng.New(11))
	nw := buildNet(model, 11, cfg)
	nw.Start()
	for f := 0; f < 5; f++ {
		keepTraffic(nw, f, 14-f, time.Second, 60*time.Second, 250*time.Millisecond)
	}

	check := func() {
		for _, n := range nw.Nodes {
			p := n.Protocol().(*core.LDR)
			for _, e := range p.SnapshotTable() {
				issued := ldrAt(nw, int(e.Dst)).OwnSeq()
				if core.Seqno(e.SeqNo) > issued {
					t.Fatalf("node %d stores seq %d for dst %d, but the destination only issued %d",
						n.ID(), e.SeqNo, e.Dst, issued)
				}
			}
		}
	}
	for tick := 2 * time.Second; tick < 60*time.Second; tick += 2 * time.Second {
		nw.Sim.At(tick, check)
	}
	nw.Sim.Run(60 * time.Second)
}

// TestLinkFailureEmitsRERRAndInvalidatesUpstream: breaking the only link
// mid-path triggers a RERR that reaches the upstream relay.
func TestLinkFailureEmitsRERRAndInvalidatesUpstream(t *testing.T) {
	// Chain 0-1-2-3; node 3 walks away at t=5s.
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0}}},
		{{At: 0, Pos: mobility.Point{X: 250}}},
		{{At: 0, Pos: mobility.Point{X: 500}}},
		{
			{At: 0, Pos: mobility.Point{X: 750}},
			{At: 5 * time.Second, Pos: mobility.Point{X: 750}},
			{At: 8 * time.Second, Pos: mobility.Point{X: 750, Y: 3000}},
		},
	}
	nw := buildNet(mobility.NewScript(tracks), 5, core.DefaultConfig())
	nw.Start()
	keepTraffic(nw, 0, 3, time.Second, 15*time.Second, 250*time.Millisecond)
	nw.Sim.Run(20 * time.Second)

	if got := nw.Collector.ControlInitiated(metrics.RERR); got == 0 {
		t.Fatal("no RERR was initiated after the link break")
	}
	// The origin must have noticed: its route to 3 is gone or it has
	// issued fresh discoveries (which fail — node 3 is unreachable).
	if _, _, ok := ldrAt(nw, 0).RouteTo(3); ok {
		t.Fatal("origin still holds an active route to the departed node")
	}
}

// TestExpandingRingGrowsTTL: a destination 6 hops away cannot be found by
// the initial small-TTL flood, so discovery needs several attempts; a
// nearby destination needs exactly one.
func TestExpandingRingGrowsTTL(t *testing.T) {
	nw := buildNet(mobility.Line(8, 250), 5, core.DefaultConfig())
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(7, 64) })
	nw.Sim.Run(10 * time.Second)

	rreqs := nw.Collector.ControlInitiated(metrics.RREQ)
	if rreqs < 2 {
		t.Fatalf("RREQ floods = %d; a 7-hop destination must need ring expansion", rreqs)
	}
	if nw.Collector.DataDelivered != 1 {
		t.Fatalf("packet not delivered after ring search (delivered=%d)", nw.Collector.DataDelivered)
	}

	nw2 := buildNet(mobility.Line(8, 250), 5, core.DefaultConfig())
	nw2.Start()
	nw2.Sim.Schedule(0, func() { nw2.Nodes[0].OriginateData(1, 64) })
	nw2.Sim.Run(10 * time.Second)
	if rreqs := nw2.Collector.ControlInitiated(metrics.RREQ); rreqs != 1 {
		t.Fatalf("adjacent destination took %d floods, want 1", rreqs)
	}
}

// TestDiscoveryGivesUpWhenPartitioned: with no physical path, discovery
// retries then drops the queued packets rather than looping forever.
func TestDiscoveryGivesUpWhenPartitioned(t *testing.T) {
	// Node 1 is unreachable (5 km away).
	pts := []mobility.Point{{X: 0}, {X: 5000}}
	nw := buildNet(mobility.NewStatic(pts), 1, core.DefaultConfig())
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(1, 64) })
	nw.Sim.Run(120 * time.Second)

	c := nw.Collector
	if c.DataDropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the queued packet)", c.DataDropped)
	}
	rreqs := c.ControlInitiated(metrics.RREQ)
	if rreqs == 0 {
		t.Fatal("no discovery attempted")
	}
	if rreqs > 12 {
		t.Fatalf("%d RREQ floods for an unreachable destination; retry cap broken", rreqs)
	}
	if nw.Sim.Pending() != 0 {
		t.Fatalf("%d events still pending after give-up; timers leak", nw.Sim.Pending())
	}
}

// TestIntermediateNodeAnswersFromCache: with a fresh route at a relay, the
// origin's discovery is answered without the flood reaching the
// destination (SDC reply), unlike AODV-after-break.
func TestIntermediateNodeAnswersWithSDC(t *testing.T) {
	nw := buildNet(mobility.Line(5, 250), 9, core.DefaultConfig())
	nw.Start()
	// Prime node 1's route to 4 (1→2→3→4).
	nw.Sim.Schedule(0, func() { nw.Nodes[1].OriginateData(4, 64) })
	// Node 0 asks shortly after; node 1 holds a fresh feasible route and
	// must answer itself.
	var destRREPs uint64
	nw.Sim.At(500*time.Millisecond, func() {
		destRREPs = nw.Collector.ControlInitiated(metrics.RREP)
		nw.Nodes[0].OriginateData(4, 64)
	})
	nw.Sim.Run(3 * time.Second)

	if _, dist, ok := ldrAt(nw, 0).RouteTo(4); !ok || dist != 4 {
		t.Fatalf("node 0 route to 4: dist=%d ok=%v, want 4", dist, ok)
	}
	if got := nw.Collector.ControlInitiated(metrics.RREP); got != destRREPs+1 {
		t.Fatalf("second discovery initiated %d RREPs, want exactly 1 (from the relay)", got-destRREPs)
	}
}
