package aodv_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

func buildNet(model mobility.Model, seed int64) *routing.Network {
	return routing.NewNetwork(model.NumNodes(), model, mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return aodv.New(node)
		})
}

func aodvAt(nw *routing.Network, id int) *aodv.AODV {
	return nw.Nodes[id].Protocol().(*aodv.AODV)
}

// TestRouteBreakInflatesStoredSequenceNumbers captures AODV's defining
// side effect (and the paper's Fig. 7 contrast with LDR): invalidating a
// route increments the *stored* destination sequence number — a third
// party changing the destination's number.
func TestRouteBreakInflatesStoredSequenceNumbers(t *testing.T) {
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0}}},
		{{At: 0, Pos: mobility.Point{X: 250}}},
		{
			{At: 0, Pos: mobility.Point{X: 500}},
			{At: 3 * time.Second, Pos: mobility.Point{X: 500}},
			{At: 5 * time.Second, Pos: mobility.Point{X: 500, Y: 3000}},
		},
	}
	nw := routing.NewNetwork(3, mobility.NewScript(tracks), mac.DefaultConfig(), 4,
		func(node *routing.Node) routing.Protocol {
			return aodv.New(node)
		})
	nw.Start()
	for ts := time.Second; ts < 10*time.Second; ts += 250 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[0].OriginateData(2, 64) })
	}

	var seqWhileRouted, destIssued uint64
	nw.Sim.At(2*time.Second, func() {
		for _, e := range aodvAt(nw, 1).SnapshotTable() {
			if e.Dst == 2 {
				seqWhileRouted = e.SeqNo
			}
		}
	})
	nw.Sim.Run(15 * time.Second)
	destIssued = uint64(aodvAt(nw, 2).OwnSeq())

	var seqAfterBreak uint64
	for _, e := range aodvAt(nw, 1).SnapshotTable() {
		if e.Dst == 2 {
			seqAfterBreak = e.SeqNo
		}
	}
	if seqAfterBreak <= seqWhileRouted {
		t.Fatalf("stored seq did not inflate on break: %d -> %d", seqWhileRouted, seqAfterBreak)
	}
	if seqAfterBreak <= destIssued {
		t.Fatalf("stored seq %d should exceed what the destination issued (%d) — the third-party increment",
			seqAfterBreak, destIssued)
	}
}

// TestIntermediateReplyRequiresFreshEnoughSeq: a relay may answer only
// with a sequence number at least as new as the request's.
func TestIntermediateReplySuppressedAfterBreak(t *testing.T) {
	// Chain 0-1-2-3. Prime routes 0→3. Then break 2-3 (node 3 leaves);
	// node 0's rediscovery carries seq+1, which node 1's stale entry can
	// no longer answer — the flood must travel on.
	tracks := [][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0}}},
		{{At: 0, Pos: mobility.Point{X: 250}}},
		{{At: 0, Pos: mobility.Point{X: 500}}},
		{
			{At: 0, Pos: mobility.Point{X: 750}},
			{At: 4 * time.Second, Pos: mobility.Point{X: 750}},
			{At: 6 * time.Second, Pos: mobility.Point{X: 750, Y: 3000}},
		},
	}
	nw := routing.NewNetwork(4, mobility.NewScript(tracks), mac.DefaultConfig(), 6,
		func(node *routing.Node) routing.Protocol {
			return aodv.New(node)
		})
	nw.Start()
	for ts := time.Second; ts < 20*time.Second; ts += 250 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[0].OriginateData(3, 64) })
	}
	nw.Sim.Run(25 * time.Second)

	// Node 3 is gone for good: nobody may keep claiming a route to it.
	if _, _, ok := aodvAt(nw, 0).RouteTo(3); ok {
		t.Fatal("node 0 still has an active route to the departed node")
	}
	if _, _, ok := aodvAt(nw, 1).RouteTo(3); ok {
		t.Fatal("node 1 (stale relay) still answers for the departed node")
	}
	if nw.Collector.ControlInitiated(metrics.RERR) == 0 {
		t.Fatal("no RERR initiated on the break")
	}
}

// TestAODVSeqnoExceedsLDRs quantifies the Fig. 7 mechanism in a single
// mobile scenario: same workload, same mobility — AODV's mean stored
// sequence number must exceed LDR's by a wide margin.
func TestAODVSeqnoExceedsLDRs(t *testing.T) {
	runOne := func(proto scenario.ProtocolName) float64 {
		cfg := scenario.Nodes50(proto, 10, 0, 5)
		cfg.Nodes = 25
		cfg.SimTime = 120 * time.Second
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Collector.MeanSeqno()
	}
	aodvMean := runOne(scenario.AODV)
	ldrMean := runOne(scenario.LDR)
	if aodvMean < 2*ldrMean || aodvMean < 1 {
		t.Fatalf("seqno separation missing: AODV %.2f vs LDR %.2f", aodvMean, ldrMean)
	}
}

// TestDestinationAdoptsRequestedSeq: on answering a RREQ, the destination
// must raise its own number to the maximum of its current one and the
// (possibly third-party-inflated) requested one — the adoption rule that
// lets AODV's numbers ratchet upward network-wide.
func TestDestinationAdoptsRequestedSeq(t *testing.T) {
	nw := buildNet(mobility.Line(2, 250), 8)
	nw.Start()
	dest := aodvAt(nw, 1)
	nw.Sim.Schedule(0, func() {
		dest.HandleControl(0, &aodv.RREQ{
			Dst:       1,
			DstSeq:    41, // an upstream node inflated this across breaks
			Origin:    0,
			OriginSeq: 1,
			ReqID:     7,
			TTL:       3,
		})
	})
	nw.Sim.Run(time.Second)

	if got := dest.OwnSeq(); got < 41 {
		t.Fatalf("destination's own seq = %d, must adopt the requested 41", got)
	}
}
