package core_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// ldrRoundTripAllocCeiling bounds one full LDR round trip on a warm
// 3-node chain: an expired route, a fresh RREQ flood, the destination's
// RREP, and the queued data packet's delivery. Discovery legitimately
// allocates six objects per round: the discovery's timer closure, the
// buffered packet's queue, the two RREPs' failure closures, the one
// relay's closure and the test's own scheduling closure; the duplicate
// caches and the discovery table reuse their slots. AllocsPerRun reports
// a whole number, so with half an allocation of margin one more object
// per round fails: the relayed RREQ boxed or drawn outside the pool
// again, a per-packet copy of a message, or a cache entry or discovery
// record on the heap again.
const ldrRoundTripAllocCeiling = 6.5

// TestLDRRREQRoundTripAllocBound runs repeated discovery+delivery rounds
// and fails when a round's average heap allocations exceed the ceiling.
func TestLDRRREQRoundTripAllocBound(t *testing.T) {
	nw := lineNetwork(t, 3, 11)
	nw.Start()
	// Space rounds past ActiveRouteTimeout (3s) so every round starts
	// with an expired route and must rediscover it.
	const window = 5 * time.Second
	var at time.Duration
	round := func() {
		nw.Sim.At(at, func() { nw.Nodes[0].OriginateData(2, 256) })
		at += window
		nw.Sim.Run(at)
	}
	for i := 0; i < 16; i++ {
		round() // warm the pools
	}
	if got, want := nw.Collector.DataInitiated, uint64(16); got != want {
		t.Fatalf("warmup initiated %d packets, want %d", got, want)
	}
	avg := testing.AllocsPerRun(50, round)
	t.Logf("LDR RREQ round trip: %.1f allocs per round (ceiling %.1f)", avg, ldrRoundTripAllocCeiling)
	if avg > ldrRoundTripAllocCeiling {
		t.Fatalf("LDR RREQ round trip allocates %.1f per round, ceiling %.1f",
			avg, ldrRoundTripAllocCeiling)
	}
	if nw.Collector.DataDelivered < nw.Collector.DataInitiated-1 {
		t.Fatalf("rounds stopped delivering: %d of %d",
			nw.Collector.DataDelivered, nw.Collector.DataInitiated)
	}
}

// TestModelStateZeroAlloc: once warm, an LDR instance that buffers no
// data saves, encodes and restores its state without allocating — here
// with routes, alternates and engaged state with alternate reverse hops,
// alternated with the empty state a volatile reset leaves.
func TestModelStateZeroAlloc(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Multipath = true
	// A diamond: 0 reaches 3 through 1 and through 2.
	nw := buildNet(mobility.NewStatic([]mobility.Point{{X: 0}, {X: 200, Y: 100}, {X: 200, Y: -100}, {X: 400}}), 3, cfg)
	nw.Start()
	keepTraffic(nw, 0, 3, 0, time.Second, 100*time.Millisecond)
	nw.Sim.Run(2 * time.Second)
	if len(ldrAt(nw, 0).AltSuccessors(3)) == 0 {
		t.Fatal("node 0 holds no alternate toward 3; the state should exercise them")
	}
	for id := range nw.Nodes {
		l := ldrAt(nw, id)
		l.WalkHeldData(func(*routing.DataPacket) { t.Fatalf("node %d buffers data", id) })
		full := l.SaveModelState(nil)
		l.ResetVolatile()
		empty := l.SaveModelState(nil)
		var enc []byte
		cycle := func() {
			l.RestoreModelState(full)
			enc = l.AppendModelState(enc[:0])
			full = l.SaveModelState(full)
			l.RestoreModelState(empty)
			enc = l.AppendModelState(enc[:0])
			empty = l.SaveModelState(empty)
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("node %d: a warm save, encode and restore allocate %v times, want 0", id, n)
		}
	}
}
