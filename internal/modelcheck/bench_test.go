package modelcheck

// Exploration-throughput benchmarks: states/sec, trans/sec and exact state
// counts of the 3-node lines (what LDR's search allocates on both 3-node
// graphs is gated end to end by the modelcheck3 workload of `make
// bench-gate`). Check splits a layer across GOMAXPROCS workers only if
// it fills four rounds (modelcheck.go), and no layer of
// the 3-node line does, so both run on one world at any GOMAXPROCS: they
// measure the one-worker search. A transition is one apply, one loop check,
// one state key and one in-place restore (snapshot.go), each of the
// one node the action wrote. By the CPU profile of BenchmarkCheckLDRLine3
// on one CPU: restoring the written node and links 20 % (LDR's own restore
// 11 %), applying actions 17 % (the handlers 8 %, hashing what they queue
// 2 %), the key 16 % (most of it the written node's
// AppendModelState and its hash), saving on seek 13 %, the loop check
// with its table snapshot 9 %, merging a layer's results 7 %, and the
// visited set 5 %. LDR's own save, restore, encoding, table snapshot and
// reset together are a quarter.
// The work is per state, not per transition: sleep sets (sleep.go) leave
// out about half the transitions, the ones that only lead back into the
// visited set, so how many are made per state is the reduction's figure
// and trans/sec alone no longer measures speed.
// states/sec is the number to watch, and B/op guards against a return to
// per-state world construction or whole-world records; the state counts
// themselves are exact and double as a state-encoding regression guard.

import "testing"

func benchCheck(b *testing.B, proto string, opts Options) {
	g, err := NamedTopology("line3")
	if err != nil {
		b.Fatal(err)
	}
	var states, transitions int
	for i := 0; i < b.N; i++ {
		sc := &Scenario{Graph: g, Protocol: proto, Seed: 1}
		res, err := Check(sc, opts)
		if err != nil {
			b.Fatal(err)
		}
		states, transitions = res.States, res.Transitions
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(states*b.N)/elapsed, "states/sec")
		b.ReportMetric(float64(transitions*b.N)/elapsed, "trans/sec")
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkCheckLDRLine3(b *testing.B) {
	benchCheck(b, "ldr", Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1})
}

func BenchmarkCheckAODVLine3(b *testing.B) {
	// Stops at the first violation, so this measures time-to-witness.
	benchCheck(b, "aodv", Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1})
}

// TestSearchAllocsPerState bounds what the search allocates per state
// on the LDR 3-node line: 3.67 measured, 4.04 under -race; the layers
// never split, so the count does not depend on GOMAXPROCS. One more
// allocation per expanded state, however small, fails it; the modelcheck3
// workload's alloc_mb (`make bench-gate`) counts bytes, and an 8-byte one
// moves it 1.3 %, inside its 8 % bound.
func TestSearchAllocsPerState(t *testing.T) {
	g, err := NamedTopology("line3")
	if err != nil {
		t.Fatal(err)
	}
	var states int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := Check(&Scenario{Graph: g, Protocol: "ldr", Seed: 1}, Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1})
		if err != nil {
			t.Fatal(err)
		}
		states = res.States
	})
	if perState := allocs / float64(states); perState > 4.25 {
		t.Errorf("the search allocates %.2f times per state (%v over %d states), want at most 4.25", perState, allocs, states)
	}
}
