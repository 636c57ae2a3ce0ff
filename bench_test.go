// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale: one benchmark per table/figure, each
// iteration running the corresponding scenario sweep and reporting the
// paper's metrics via b.ReportMetric. The full-scale reproduction (900 s,
// 10 trials) is cmd/ldrbench; these benches exercise the identical code
// path fast enough for routine regression runs.
//
//	go test -bench=. -benchmem
package ldr_test

import (
	"strconv"
	"testing"
	"time"

	ldr "github.com/manetlab/ldr"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/scenario"
)

// benchSimTime keeps a single iteration around a second of wall time.
const benchSimTime = 60 * time.Second

// runCell executes one scenario cell and reports the paper's metrics.
func runCell(b *testing.B, cfg ldr.ScenarioConfig) {
	b.Helper()
	var delivery, latencyMs, netLoad float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := ldr.RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c := res.Collector
		delivery += 100 * c.DeliveryRatio()
		latencyMs += float64(c.MeanLatency()) / float64(time.Millisecond)
		netLoad += c.NetworkLoad()
	}
	n := float64(b.N)
	b.ReportMetric(delivery/n, "delivery_%")
	b.ReportMetric(latencyMs/n, "latency_ms")
	b.ReportMetric(netLoad/n, "ctrl/data")
}

// cell is the experiments' own cell constructor at the bench scale.
func cell(proto ldr.ProtocolName, nodes, flows int, pause time.Duration) ldr.ScenarioConfig {
	return experiments.Options{SimTime: benchSimTime}.Cell(proto, nodes, flows, pause, 1)
}

// BenchmarkTable1 reproduces Table 1's per-protocol summary rows: each
// sub-benchmark is one (protocol, flow-count) cell of the paper's summary,
// averaged here over a single mid-mobility pause time.
func BenchmarkTable1(b *testing.B) {
	for _, flows := range []int{10, 30} {
		for _, proto := range scenario.AllProtocols {
			b.Run(string(proto)+"/flows="+strconv.Itoa(flows), func(b *testing.B) {
				runCell(b, cell(proto, 50, flows, 30*time.Second))
			})
		}
	}
}

// BenchmarkFig2DeliveryRatio50n10f: delivery vs pause time, 50 nodes, 10 flows.
func BenchmarkFig2DeliveryRatio50n10f(b *testing.B) {
	benchFigure(b, 50, 10)
}

// BenchmarkFig3DeliveryRatio50n30f: delivery vs pause time, 50 nodes, 30 flows.
func BenchmarkFig3DeliveryRatio50n30f(b *testing.B) {
	benchFigure(b, 50, 30)
}

// BenchmarkFig4DeliveryRatio100n10f: delivery vs pause time, 100 nodes, 10 flows.
func BenchmarkFig4DeliveryRatio100n10f(b *testing.B) {
	benchFigure(b, 100, 10)
}

// BenchmarkFig5DeliveryRatio100n30f: delivery vs pause time, 100 nodes, 30 flows.
func BenchmarkFig5DeliveryRatio100n30f(b *testing.B) {
	benchFigure(b, 100, 30)
}

func benchFigure(b *testing.B, nodes, flows int) {
	for _, pause := range []time.Duration{0, benchSimTime} { // moving vs static endpoints
		for _, proto := range scenario.AllProtocols {
			b.Run(string(proto)+"/pause="+pause.String(), func(b *testing.B) {
				runCell(b, cell(proto, nodes, flows, pause))
			})
		}
	}
}

// BenchmarkFig6QualnetDSR: the Fig. 3 scenario under the draft-7 DSR
// variant vs AODV (the paper's QualNet cross-check).
func BenchmarkFig6QualnetDSR(b *testing.B) {
	for _, proto := range []ldr.ProtocolName{ldr.ProtoAODV, ldr.ProtoDSR, ldr.ProtoDSR7} {
		b.Run(string(proto), func(b *testing.B) {
			runCell(b, cell(proto, 50, 30, 0))
		})
	}
}

// BenchmarkFig7SeqnoGrowth: mean destination sequence number, LDR vs AODV,
// at low and high load. The paper's separation — LDR ≲ 1.5, AODV in the
// hundreds — shows up at any scale.
func BenchmarkFig7SeqnoGrowth(b *testing.B) {
	for _, flows := range []int{10, 30} {
		for _, proto := range []ldr.ProtocolName{ldr.ProtoLDR, ldr.ProtoAODV} {
			b.Run(string(proto)+"/flows="+strconv.Itoa(flows), func(b *testing.B) {
				cfg := cell(proto, 50, flows, 0)
				var seqno float64
				for i := 0; i < b.N; i++ {
					cfg.Seed = int64(i + 1)
					res, err := ldr.RunScenario(cfg)
					if err != nil {
						b.Fatal(err)
					}
					seqno += res.Collector.MeanSeqno()
				}
				b.ReportMetric(seqno/float64(b.N), "mean_seqno")
			})
		}
	}
}

// BenchmarkAblation measures each LDR optimization's contribution (the
// design choices DESIGN.md calls out), on the constant-motion scenario.
func BenchmarkAblation(b *testing.B) {
	for _, v := range experiments.Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			v.Mutate(&cfg)
			sc := cell(ldr.ProtoLDR, 50, 10, 0)
			sc.LDRConfig = &cfg
			runCell(b, sc)
		})
	}
}
