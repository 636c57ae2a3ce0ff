package sweep_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// benchCells is a reduced Table 1 cell set: 2 protocols × 2 pause times ×
// 2 seeds of a 25-node, 8-flow scenario. Big enough that each cell is
// real simulation work, small enough for go test -bench.
func benchCells() []scenario.Config {
	var cfgs []scenario.Config
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		for _, pause := range []time.Duration{0, 30 * time.Second} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := scenario.Nodes50(proto, 8, pause, seed)
				cfg.Nodes = 25
				cfg.SimTime = 30 * time.Second
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

func benchSweep(b *testing.B, workers int) {
	cfgs := benchCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(cfgs, sweep.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(cfgs))/secs, "cells/sec")
	}
}

// BenchmarkSweepSerial is the single-core baseline for the reduced
// Table 1 cell set.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepWorkers4 is the same cell set fanned across 4 workers;
// on a ≥4-core box ns/op should be ≥4× lower than BenchmarkSweepSerial
// (cells are share-nothing, so scaling is limited only by cores and the
// longest single cell).
func BenchmarkSweepWorkers4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkSweepMaxProcs uses the default worker count (GOMAXPROCS).
func BenchmarkSweepMaxProcs(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepJournaled is BenchmarkSweepWorkers4 with journaling on:
// the delta against the plain run is the full resilience overhead (spec
// hashing, JSON encoding, fsync'd record writes). Each iteration gets a
// fresh journal directory — reusing one would measure journal loads, not
// journaled runs.
func BenchmarkSweepJournaled(b *testing.B) {
	cfgs := benchCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		j, err := resilience.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sweep.Run(cfgs, sweep.Options{
			Workers: 4,
			Exec:    sweep.ExecOptions{Journal: j},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(cfgs))/secs, "cells/sec")
	}
}
