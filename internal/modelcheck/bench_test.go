package modelcheck

// Exploration-throughput benchmarks, recorded as BENCH_modelcheck.json
// by `make bench-modelcheck`. A transition is one apply, one loop check,
// one canonical encoding and one in-place restore (snapshot.go), in
// roughly equal parts, so states/sec is the number to watch and B/op
// guards against a return to per-state world construction; the state
// counts themselves are exact and double as a symmetry-reduction
// regression guard.

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
