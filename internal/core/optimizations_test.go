package core_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// primeRoute drives one discovery 0→(n-1) on a chain and returns at 500ms.
func primeRoute(nw *routing.Network, dst int) {
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(routing.NodeID(dst), 64) })
	nw.Sim.Run(500 * time.Millisecond)
}

// TestRequestAsErrorInvalidatesRoute: node A (here node 0) holds a route
// to D via successor B; a solicitation for D arriving *from B itself*
// proves B lost its route, so A must invalidate (the paper's
// "request as error" optimization).
func TestRequestAsErrorInvalidatesRoute(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.RequestAsError = enabled
		nw := buildNet(mobility.Line(3, 250), 2, cfg)
		nw.Start()
		primeRoute(nw, 2) // 0 → 1 → 2

		p := ldrAt(nw, 0)
		if _, _, ok := p.RouteTo(2); !ok {
			t.Fatal("setup: node 0 has no route to 2")
		}
		// Craft node 1's solicitation for destination 2 as node 0 hears it.
		nw.Sim.Schedule(0, func() {
			p.HandleControl(1, &core.RREQ{
				Dst:        2,
				HaveDstSeq: false,
				Origin:     1,
				OriginSeq:  core.NewSeqno(1, 0),
				ReqID:      99,
				FD:         core.Infinity,
				AnsDist:    core.Infinity,
				TTL:        3,
			})
		})
		nw.Sim.Run(600 * time.Millisecond)

		_, _, ok := p.RouteTo(2)
		if enabled && ok {
			t.Fatal("request-as-error enabled but the route via the soliciting successor survived")
		}
		if !enabled && !ok {
			t.Fatal("request-as-error disabled but the route was invalidated anyway")
		}
	}
}

// TestMultipleRREPsRelayOnlyStronger: a relay forwards a second RREP for
// the same computation only when it carries strictly stronger invariants.
func TestMultipleRREPsRelayOnlyStronger(t *testing.T) {
	// Node 1 is the relay between origin 0 and the rest of the chain.
	cfg := core.DefaultConfig()
	nw := buildNet(mobility.Line(3, 250), 4, cfg)
	nw.Start()
	primeRoute(nw, 2)

	relay := ldrAt(nw, 1)
	countRREPs := func() uint64 { return nw.Collector.ControlTransmitted(metrics.RREP) }

	// Re-solicit so node 1 is engaged in a fresh computation from node 0.
	var before uint64
	nw.Sim.At(4*time.Second, func() { nw.Nodes[0].OriginateData(2, 64) })
	nw.Sim.Run(5 * time.Second)
	before = countRREPs()

	// The discovery used (origin 0, some reqid); find it by replaying the
	// destination's reply twice: once equal (suppressed), once stronger.
	// We synthesize RREPs directly at the relay; its cache still holds the
	// engagement within RREQCacheLife.
	reqID := latestReqID(relay)
	if reqID == 0 {
		t.Skip("no engaged computation found to replay against")
	}
	nw.Sim.Schedule(0, func() {
		equal := &core.RREP{Dst: 2, DstSeq: currentSeq(relay, 2), Origin: 0, ReqID: reqID, Dist: 1, Lifetime: time.Second}
		relay.HandleControl(2, equal) // same invariants as already relayed
	})
	nw.Sim.Run(5100 * time.Millisecond)
	afterEqual := countRREPs()

	nw.Sim.Schedule(0, func() {
		stronger := &core.RREP{Dst: 2, DstSeq: currentSeq(relay, 2) + 1, Origin: 0, ReqID: reqID, Dist: 0, Lifetime: time.Second}
		relay.HandleControl(2, stronger)
	})
	nw.Sim.Run(5200 * time.Millisecond)
	afterStronger := countRREPs()

	if afterEqual != before {
		t.Fatalf("equal-invariant duplicate RREP was relayed (%d -> %d)", before, afterEqual)
	}
	if afterStronger == afterEqual {
		t.Fatal("stronger RREP was not relayed")
	}
}

// latestReqID digs the most recent engagement's request id out of the
// relay via its observable behaviour: we track it through SnapshotTable's
// side door by replaying ids until one relays. Simpler: the protocol
// assigns reqIDs sequentially per origin starting at 1; after two
// discoveries from node 0 the live computation is id 2.
func latestReqID(*core.LDR) uint32 { return 2 }

func currentSeq(l *core.LDR, dst routing.NodeID) core.Seqno {
	for _, e := range l.SnapshotTable() {
		if e.Dst == dst {
			return core.Seqno(e.SeqNo)
		}
	}
	return core.NewSeqno(1, 0)
}
