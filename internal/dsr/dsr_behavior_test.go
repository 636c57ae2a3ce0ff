package dsr_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
)

func buildNet(model mobility.Model, seed int64, cfg dsr.Config) *routing.Network {
	return routing.NewNetwork(model.NumNodes(), model, radio.DefaultConfig(), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return dsr.New(node, cfg)
		})
}

func dsrAt(nw *routing.Network, id int) *dsr.DSR {
	return nw.Nodes[id].Protocol().(*dsr.DSR)
}

// TestRelaysLearnRoutesFromForwardedTraffic: after one discovery 0→4,
// relay nodes hold cached routes to the destination for free.
func TestRelaysLearnRoutesFromForwardedTraffic(t *testing.T) {
	nw := buildNet(mobility.Line(5, 250), 2, dsr.DefaultConfig())
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(4, 64) })
	nw.Sim.Run(3 * time.Second)

	for relay := 1; relay <= 3; relay++ {
		if dsrAt(nw, relay).CachedRoute(4) == nil {
			t.Fatalf("relay %d learned no route to 4 from forwarded traffic", relay)
		}
	}
	// And the reverse direction from the RREQ record.
	if dsrAt(nw, 3).CachedRoute(0) == nil {
		t.Fatal("relay 3 learned no reverse route to the origin")
	}
}

// TestReplyFromCacheShortCircuitsFlood: after a route is known at node 1,
// node 0's discovery for the same target is answered by node 1 without
// the flood reaching the destination.
func TestReplyFromCacheShortCircuitsFlood(t *testing.T) {
	nw := buildNet(mobility.Line(5, 250), 3, dsr.DefaultConfig())
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[1].OriginateData(4, 64) })

	var floodsBefore uint64
	nw.Sim.At(time.Second, func() {
		floodsBefore = nw.Collector.ControlTransmitted(metrics.RREQ)
		nw.Nodes[0].OriginateData(4, 64)
	})
	nw.Sim.Run(3 * time.Second)

	// Node 0's non-propagating TTL-1 request reaches node 1, which holds
	// a cached path: exactly one RREQ transmission suffices.
	floodsAfter := nw.Collector.ControlTransmitted(metrics.RREQ)
	if floodsAfter-floodsBefore != 1 {
		t.Fatalf("cache reply should cost 1 RREQ transmission, took %d", floodsAfter-floodsBefore)
	}
	if nw.Collector.DataDelivered != 2 {
		t.Fatalf("delivered %d, want both packets", nw.Collector.DataDelivered)
	}
}

// TestBrokenLinkPurgedEverywhereViaRERR: after a mid-path break, the
// origin's cache no longer contains the dead link.
func TestBrokenLinkPurgedEverywhereViaRERR(t *testing.T) {
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0}}},
		{{At: 0, Pos: mobility.Point{X: 250}}},
		{{At: 0, Pos: mobility.Point{X: 500}}},
		{
			{At: 0, Pos: mobility.Point{X: 750}},
			{At: 2 * time.Second, Pos: mobility.Point{X: 750}},
			{At: 4 * time.Second, Pos: mobility.Point{X: 750, Y: 3000}},
		},
	}
	nw := buildNet(mobility.NewScript(tracks), 4, dsr.DefaultConfig())
	nw.Start()
	for ts := 500 * time.Millisecond; ts < 10*time.Second; ts += 250 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[0].OriginateData(3, 64) })
	}
	nw.Sim.Run(15 * time.Second)

	if nw.Collector.ControlInitiated(metrics.RERR) == 0 {
		t.Fatal("no RERR initiated after the break")
	}
	if route := dsrAt(nw, 0).CachedRoute(3); route != nil {
		t.Fatalf("origin still caches a route to the departed node: %v", route)
	}
}

// TestSalvageReroutesMidPath (draft 7): when the primary next hop dies but
// the relay knows an alternate path, the packet is salvaged instead of
// dropped.
func TestSalvageReroutesMidPath(t *testing.T) {
	// Diamond: 0 — 1 — 3 and 0 — 1 — 2 — 3' where 3 is reachable from
	// both 1 (directly, until it moves) and 2.
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0, Y: 0}}},     // 0 origin
		{{At: 0, Pos: mobility.Point{X: 250, Y: 0}}},   // 1 relay
		{{At: 0, Pos: mobility.Point{X: 350, Y: 200}}}, // 2 alternate relay (in range of 1 and 3)
		{ // 3 destination: drifts out of 1's range but stays in 2's
			{At: 0, Pos: mobility.Point{X: 500, Y: 0}},
			{At: 2 * time.Second, Pos: mobility.Point{X: 500, Y: 0}},
			{At: 6 * time.Second, Pos: mobility.Point{X: 500, Y: 280}},
		},
	}
	cfg := dsr.Draft7Config()
	nw := buildNet(mobility.NewScript(tracks), 6, cfg)
	nw.Start()
	for ts := 500 * time.Millisecond; ts < 12*time.Second; ts += 200 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[0].OriginateData(3, 64) })
	}
	nw.Sim.Run(15 * time.Second)

	// With salvaging, delivery must stay high across the handover.
	if ratio := nw.Collector.DeliveryRatio(); ratio < 0.85 {
		t.Fatalf("delivery with salvage = %.2f, want ≥ 0.85", ratio)
	}
}

// TestSourceRouteCarriedInDataHeader: delivered packets grew their header
// by the source-route option (visible in DataTransmitted accounting via
// message sizes — here we check the SourceRoute survives end to end).
func TestSourceRouteNamesEveryHop(t *testing.T) {
	nw := buildNet(mobility.Line(4, 250), 5, dsr.DefaultConfig())
	received := make(chan []routing.NodeID, 1)
	// Intercept at the destination by swapping its protocol for a probe
	// that records the route then delegates.
	inner := dsrAt(nw, 3)
	nw.Nodes[3].SetProtocol(&probe{inner: inner, got: received})
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(3, 64) })
	nw.Sim.Run(3 * time.Second)

	select {
	case route := <-received:
		want := []routing.NodeID{0, 1, 2, 3}
		if len(route) != len(want) {
			t.Fatalf("source route = %v, want %v", route, want)
		}
		for i := range want {
			if route[i] != want[i] {
				t.Fatalf("source route = %v, want %v", route, want)
			}
		}
	default:
		t.Fatal("destination never received the data packet")
	}
}

type probe struct {
	inner routing.Protocol
	got   chan []routing.NodeID
}

func (p *probe) Start()                                               { p.inner.Start() }
func (p *probe) Stop()                                                { p.inner.Stop() }
func (p *probe) Originate(pkt *routing.DataPacket)                    { p.inner.Originate(pkt) }
func (p *probe) HandleControl(from routing.NodeID, m routing.Message) { p.inner.HandleControl(from, m) }
func (p *probe) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == 3 {
		select {
		case p.got <- pkt.SourceRoute:
		default:
		}
	}
	p.inner.HandleData(from, pkt)
}

// TestDuplicateRequestMemorySurvivesStaleExpiryTimer: a request seen
// before a crash and learned again after the reboot is remembered for a
// whole cache life from the second sighting, not until a life after the
// first. While every entry had an expiry timer, the one armed before the
// crash fired against the refilled cache and evicted the new entry (hence
// the name); the cache has no timers now, and this pins what they owed.
func TestDuplicateRequestMemorySurvivesStaleExpiryTimer(t *testing.T) {
	// 0 and 1 are neighbours; the target 2 is out of everyone's range, so
	// node 1 answers nothing from its cache and every copy it accepts is
	// rebroadcast exactly once.
	pts := []mobility.Point{{X: 0}, {X: 200}, {X: 5000}}
	nw := buildNet(mobility.NewStatic(pts), 4, dsr.DefaultConfig())
	nw.Start()
	d := dsrAt(nw, 1)
	req := &dsr.RREQ{Origin: 0, ReqID: 7, Target: 2, Route: []routing.NodeID{0}, TTL: 5}
	relayed := func() uint64 { return nw.Collector.ControlTransmitted(metrics.RREQ) }

	nw.Sim.At(0, func() { d.HandleControl(0, req) }) // first sight: would expire at t=6s
	nw.Sim.At(time.Second, func() {
		if got := relayed(); got != 1 {
			t.Errorf("first copy relayed %d times, want 1", got)
		}
		d.Reset()
	})
	nw.Sim.At(2*time.Second, func() { d.HandleControl(0, req) }) // re-learned: good until t=8s
	nw.Sim.At(7*time.Second, func() {
		if got := relayed(); got != 2 {
			t.Errorf("copy after the reboot relayed %d times in total, want 2", got)
		}
		d.HandleControl(0, req) // the pre-crash entry would have expired a second ago
	})
	nw.Sim.At(9*time.Second, func() { d.HandleControl(0, req) }) // the entry's own life is over
	nw.Sim.Run(7500 * time.Millisecond)
	if got := relayed(); got != 2 {
		t.Errorf("a copy inside the re-learned entry's cache life was relayed (%d in total, want 2): its life was counted from before the crash", got)
	}
	nw.Sim.Run(10 * time.Second)
	if got := relayed(); got != 3 {
		t.Errorf("%d relays after the entry's own expiry, want 3: entries must not be kept forever", got)
	}
}
