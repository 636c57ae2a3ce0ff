package core_test

import (
	"testing"
	"time"
)

// ldrRoundTripAllocCeiling bounds one full LDR round trip on a warm
// 3-node chain: an expired route, a fresh RREQ flood, the destination's
// RREP, and the queued data packet's delivery. Discovery legitimately
// allocates nine objects per round: the two duplicate-cache entries, the
// discovery record and its timer closure, the buffered packet's queue,
// the two RREPs' failure closures, the one relay's closure and the test's
// own scheduling closure. AllocsPerRun reports a whole number, so with
// half an allocation of margin one more object per round fails: the
// relayed RREQ boxed or drawn outside the pool again, or a per-packet
// copy of a message.
const ldrRoundTripAllocCeiling = 9.5

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
