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
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

// rreqTap records the RREQs a node hears, with the sender; it sends
// nothing.
type rreqTap struct {
	heard []core.RREQ
	from  []routing.NodeID
}

func (*rreqTap) Start()                                         {}
func (*rreqTap) Stop()                                          {}
func (*rreqTap) Originate(*routing.DataPacket)                  {}
func (*rreqTap) HandleData(routing.NodeID, *routing.DataPacket) {}
func (r *rreqTap) HandleControl(from routing.NodeID, msg routing.Message) {
	if q, ok := msg.(*core.RREQ); ok {
		r.heard = append(r.heard, *q)
		r.from = append(r.from, from)
	}
}

// TestResetLegAtUnengagedNodeFloods pins what a unicast reset leg (an
// RREQ with D set) does at a node that has not yet seen the computation
// and fails SDC there, having no route to the destination: the leg does
// not die. The node takes it as a fresh solicitation and relays it as a
// broadcast flood with D still set — TTL one lower, Dist one higher, N
// set for want of a route to the origin, T and the destination labels
// untouched — after one jitter draw from its own stream and nothing else.
// Node 1 runs LDR on a line of nodes 200 m apart; its neighbors 0 and 2
// only listen, and the destination, node 3, is out of its range.
func TestResetLegAtUnengagedNodeFloods(t *testing.T) {
	taps := map[routing.NodeID]*rreqTap{}
	nw := routing.NewNetwork(4, mobility.Line(4, 200), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 1 {
				return core.New(n, core.DefaultConfig())
			}
			taps[n.ID()] = &rreqTap{}
			return taps[n.ID()]
		})
	nw.Start()
	relay := ldrAt(nw, 1)
	src := nw.Nodes[1].RNG()

	leg := core.RREQ{
		Dst: 3, DstSeq: core.NewSeqno(1, 4), HaveDstSeq: true,
		Origin: 0, OriginSeq: core.NewSeqno(1, 2), ReqID: 7,
		FD: 2, AnsDist: 2, Dist: 3, TTL: 5,
		T: true, D: true,
	}
	const at = time.Second
	var state [4]uint64
	var draws uint64
	nw.Sim.At(at, func() {
		state, draws = src.State(), src.Draws()
		relay.HandleControl(0, &leg)
		draws = src.Draws() - draws
	})
	nw.Sim.Run(at)
	if draws != 1 {
		t.Fatalf("handling the leg drew %d random words, want 1 (the relay jitter)", draws)
	}
	replay := rng.New(0)
	replay.SetState(state)
	jitter := time.Duration(replay.Float64() * float64(ondemand.BroadcastJitter))
	if replay.State() != src.State() {
		t.Fatal("the draw is not the jitter's Float64")
	}

	sent := func() uint64 { return nw.Collector.ControlTransmitted(metrics.RREQ) }
	nw.Sim.Run(at + jitter - 1)
	if n := sent(); n != 0 {
		t.Fatalf("%d RREQs sent before the jitter of %v ran out", n, jitter)
	}
	nw.Sim.Run(at + jitter)
	if n := sent(); n != 1 {
		t.Fatalf("%d RREQs sent when the jitter of %v ran out, want the one relay", n, jitter)
	}
	nw.Sim.Run(at + time.Second)

	want := leg
	want.TTL, want.Dist, want.N = leg.TTL-1, leg.Dist+1, true
	for _, id := range []routing.NodeID{0, 2} {
		tap := taps[id]
		if len(tap.heard) != 1 || tap.from[0] != 1 || tap.heard[0] != want {
			t.Fatalf("node %d heard %+v from %v, want one broadcast from 1: %+v", id, tap.heard, tap.from, want)
		}
	}
	if n := len(taps[3].heard); n != 0 {
		t.Fatalf("node 3, out of range, heard %d RREQs", n)
	}
	if n := nw.Collector.ControlInitiated(metrics.RREP); n != 0 {
		t.Fatalf("the relay answered the leg with %d RREPs", n)
	}
}

// TestEngagedNodeForwardsTheLeg: a node already engaged in a computation,
// which has since learned a route to the destination, forwards the reset
// leg along it — TTL one lower, every other field as received — and
// leaves the leg it was handed as it was. Node 1 runs LDR on the line of
// TestResetLegAtUnengagedNodeFloods: it relays node 0's flood for 3
// without a route, learns one via 2 from a flood 3 originated, then gets
// 0's leg.
func TestEngagedNodeForwardsTheLeg(t *testing.T) {
	taps := map[routing.NodeID]*rreqTap{}
	nw := routing.NewNetwork(4, mobility.Line(4, 200), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 1 {
				return core.New(n, core.DefaultConfig())
			}
			taps[n.ID()] = &rreqTap{}
			return taps[n.ID()]
		})
	nw.Start()
	relay := ldrAt(nw, 1)
	flood := core.RREQ{Dst: 3, Origin: 0, OriginSeq: core.NewSeqno(1, 2), ReqID: 7, Dist: 1, TTL: 5}
	fromThree := core.RREQ{Dst: 2, Origin: 3, OriginSeq: core.NewSeqno(1, 4), ReqID: 1, Dist: 1, TTL: 5}
	leg := core.RREQ{
		Dst: 3, DstSeq: core.NewSeqno(1, 4), HaveDstSeq: true,
		Origin: 0, OriginSeq: core.NewSeqno(1, 2), ReqID: 7,
		FD: 2, AnsDist: 2, Dist: 3, TTL: 5,
		T: true, D: true,
	}
	handed := leg
	nw.Sim.At(time.Second, func() {
		relay.HandleControl(0, &flood)
		relay.HandleControl(2, &fromThree)
		relay.HandleControl(0, &leg)
	})
	nw.Sim.Run(2 * time.Second)

	if leg != handed {
		t.Fatalf("the leg handed to node 1 became %+v, was %+v", leg, handed)
	}
	want := leg
	want.TTL--
	var legs []core.RREQ
	for _, q := range taps[2].heard {
		if q.D {
			legs = append(legs, q)
		}
	}
	if len(legs) != 1 || legs[0] != want {
		t.Fatalf("node 2 heard legs %+v, want the one forwarded %+v", legs, want)
	}
}

// tappedLine is the line of TestResetLegAtUnengagedNodeFloods: node 1
// runs LDR with cfg, and nodes 0, 2 and 3 only listen.
func tappedLine(cfg core.Config) (*routing.Network, *core.LDR, map[routing.NodeID]*rreqTap) {
	taps := map[routing.NodeID]*rreqTap{}
	nw := routing.NewNetwork(4, mobility.Line(4, 200), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 1 {
				return core.New(n, cfg)
			}
			taps[n.ID()] = &rreqTap{}
			return taps[n.ID()]
		})
	nw.Start()
	return nw, ldrAt(nw, 1), taps
}

// TestLegDiesAtUnengagedNode is TestResetLegAtUnengagedNodeFloods under
// core.LegDies (the ablation's leg-dies arm): the leg reaches a node that
// has not seen the computation and has no route to answer or forward it
// with, and it ends there, with no jitter draw and nothing sent.
func TestLegDiesAtUnengagedNode(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ResetLeg = core.LegDies
	nw, relay, taps := tappedLine(cfg)
	leg := core.RREQ{
		Dst: 3, DstSeq: core.NewSeqno(1, 4), HaveDstSeq: true,
		Origin: 0, OriginSeq: core.NewSeqno(1, 2), ReqID: 7,
		FD: 2, AnsDist: 2, Dist: 3, TTL: 5,
		T: true, D: true,
	}
	src := nw.Nodes[1].RNG()
	var draws uint64
	nw.Sim.At(time.Second, func() {
		draws = src.Draws()
		relay.HandleControl(0, &leg)
		draws = src.Draws() - draws
	})
	nw.Sim.Run(2 * time.Second)
	if draws != 0 {
		t.Fatalf("handling the leg drew %d random words, want none", draws)
	}
	if n := nw.Collector.ControlTransmitted(metrics.RREQ) + nw.Collector.ControlInitiated(metrics.RREP); n != 0 {
		t.Fatalf("node 1 sent %d RREQs and RREPs for a leg it cannot forward, want none", n)
	}
	for id, tap := range taps {
		if len(tap.heard) != 0 {
			t.Fatalf("node %d heard %+v", id, tap.heard)
		}
	}
}

// TestNoResetLegRelaysTheFlood: a relay whose SDC holds with T set sends
// the unicast reset leg toward the destination by default, and under
// core.NoLeg (the ablation's no-reset-leg arm) relays the flood instead,
// as a relay without a route would: a broadcast with T still set, D
// clear, TTL one lower and its labels applied. Node 1 learns a route to 3
// via 2 from a flood 3 originated, then hears 0's flood for 3 with T set
// and an answering distance its route satisfies.
func TestNoResetLegRelaysTheFlood(t *testing.T) {
	fromThree := core.RREQ{Dst: 2, Origin: 3, OriginSeq: core.NewSeqno(1, 4), ReqID: 1, Dist: 1, TTL: 5}
	flood := core.RREQ{
		Dst: 3, DstSeq: core.NewSeqno(1, 4), HaveDstSeq: true,
		Origin: 0, OriginSeq: core.NewSeqno(1, 2), ReqID: 7,
		FD: 3, AnsDist: 3, Dist: 1, TTL: 5,
		T: true,
	}
	heard := func(leg core.ResetLeg) map[routing.NodeID][]core.RREQ {
		cfg := core.DefaultConfig()
		cfg.ResetLeg = leg
		nw, relay, taps := tappedLine(cfg)
		nw.Sim.At(time.Second, func() {
			relay.HandleControl(2, &fromThree)
			relay.HandleControl(0, &flood)
		})
		nw.Sim.Run(2 * time.Second)
		out := map[routing.NodeID][]core.RREQ{}
		for id, tap := range taps {
			for _, q := range tap.heard {
				if q.Origin == 0 {
					out[id] = append(out[id], q)
				}
			}
		}
		return out
	}

	legs := heard(core.LegFloods)
	if len(legs[0]) != 0 || len(legs[2]) != 1 || !legs[2][0].D || !legs[2][0].T {
		t.Fatalf("by default node 1 should unicast one leg (D and T set) to node 2; heard %+v", legs)
	}
	floods := heard(core.NoLeg)
	for _, id := range []routing.NodeID{0, 2} {
		if len(floods[id]) != 1 {
			t.Fatalf("under NoLeg node %d heard %+v, want the one relayed flood", id, floods[id])
		}
	}
	got := floods[2][0]
	if got.D || !got.T || got.TTL != flood.TTL-1 || got.Dist != flood.Dist+1 || got.Origin != 0 || got.Dst != 3 {
		t.Fatalf("under NoLeg node 1 relayed %+v, want a flood with T set, D clear, TTL %d and Dist %d",
			got, flood.TTL-1, flood.Dist+1)
	}
	if floods[0][0] != got {
		t.Fatalf("nodes 0 and 2 heard different relays: %+v and %+v", floods[0][0], got)
	}
}
