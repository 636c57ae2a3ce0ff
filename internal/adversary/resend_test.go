package adversary_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// spy is a protocol that only listens: it keeps every control message it
// hears, printed (a received message is valid only during the call), and
// hands the packets it originates to node 1.
type spy struct {
	node  *routing.Node
	heard []string
}

func (s *spy) Start() {}
func (s *spy) Stop()  {}
func (s *spy) HandleControl(_ routing.NodeID, msg routing.Message) {
	s.heard = append(s.heard, fmt.Sprint(msg))
}
func (s *spy) HandleData(_ routing.NodeID, pkt *routing.DataPacket) {
	s.node.DropData(pkt, routing.DropNoRoute)
}
func (s *spy) Originate(pkt *routing.DataPacket) { s.node.SendData(1, pkt) }

// resendRig is a 0 — 1 — 2 line: node 1 runs the inner protocol under a
// wrapper with behavior b, whose timer fires at 100 ms and 200 ms; nodes 0
// and 2 are spies. The conformance harness audits the run.
func resendRig(t *testing.T, b adversary.Behavior, inner func(*routing.Node) routing.Protocol) (*routing.Network, []*spy, *conformance.Harness) {
	t.Helper()
	spies := make([]*spy, 3)
	nw := routing.NewNetwork(3, mobility.Line(3, 250), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 1 {
				return inner(n)
			}
			spies[n.ID()] = &spy{node: n}
			return spies[n.ID()]
		})
	const every = 100 * time.Millisecond
	plan := adversary.Plan{Name: "resend", Compromises: []adversary.Compromise{{
		Behavior: b, Nodes: []int{1},
		ReplayEvery: every, StormEvery: every, StormBurst: 1,
	}}}
	adversary.NewEngine(nw, plan, rng.New(1), 2*every+every/2).Install()
	h := conformance.NewHarness(nw)
	nw.SetTracer(h.Ledger())
	nw.Start()
	return nw, spies, h
}

// checkResent runs the rig to the end and requires that node 2 heard the
// recorded message, unchanged, from both sends, and that the census is
// clean.
func checkResent(t *testing.T, nw *routing.Network, spies []*spy, h *conformance.Harness, want string) {
	t.Helper()
	nw.Sim.Run(time.Second)
	nw.Stop()
	h.Finish()
	if n := h.Ledger().ViolationTotal(); n != 0 {
		t.Errorf("census: %d violations (first: %v)", n, h.Ledger().Violations())
	}
	heard := spies[2].heard
	if len(heard) == 0 || heard[len(heard)-1] != want || slices.Index(heard, want) == len(heard)-1 {
		t.Errorf("node 2 heard %q; want the recorded %s from both sends, the last one included", heard, want)
	}
}

// TestReplayResendsTheRecordedMessage: a replayed message goes back to the
// inner protocol's pool once its frame is released, and the inner
// protocol's next RERR reuses it. Each replay must therefore send a fresh
// copy: sending the recorded object would let that reuse overwrite the
// record, and the second replay would carry the inner protocol's RERR.
func TestReplayResendsTheRecordedMessage(t *testing.T) {
	nw, spies, h := resendRig(t, adversary.StaleReplay, func(n *routing.Node) routing.Protocol {
		return core.New(n, core.DefaultConfig())
	})
	rec := &core.RERR{Unreachable: []core.RERRDest{{Dst: 5, Seq: 7}}}
	want := fmt.Sprint(rec)
	nw.Sim.At(0, func() { nw.Nodes[1].Protocol().HandleControl(0, rec) })
	// Between the replays: node 1 has no route to 2, so it drops the packet
	// and reports 2 unreachable in a RERR drawn from its pool.
	nw.Sim.At(150*time.Millisecond, func() { nw.Nodes[0].OriginateData(2, 64) })
	checkResent(t, nw, spies, h, want)
	if got := nw.Collector.DataDropped; got != 1 {
		t.Fatalf("node 1 dropped %d packets, want 1: its own RERR was never sent", got)
	}
}

// TestStormResendsTheRecordedMessage is the same for the DSR storm, which
// re-broadcasts recorded messages: between the bursts node 1 answers a
// request for itself with an RREP from the pool that took back the first
// burst's copy.
func TestStormResendsTheRecordedMessage(t *testing.T) {
	nw, spies, h := resendRig(t, adversary.Storm, func(n *routing.Node) routing.Protocol {
		return dsr.New(n, dsr.DefaultConfig())
	})
	rec := &dsr.RREP{Origin: 9, Target: 8, ReqID: 3, Route: []routing.NodeID{9, 0, 8}}
	want := fmt.Sprint(rec)
	nw.Sim.At(0, func() { nw.Nodes[1].Protocol().HandleControl(0, rec) })
	nw.Sim.At(150*time.Millisecond, func() {
		nw.Nodes[1].Protocol().HandleControl(0, &dsr.RREQ{Target: 1, Origin: 0, ReqID: 1, Route: []routing.NodeID{0}, TTL: 1})
	})
	checkResent(t, nw, spies, h, want)
	if got := spies[0].heard; !slices.Contains(got, fmt.Sprint(&dsr.RREP{Origin: 0, Target: 1, ReqID: 1, Route: []routing.NodeID{0, 1}})) {
		t.Fatalf("node 0 heard %q: node 1 never answered the request", got)
	}
}
