package scenario_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/scenario"
)

// chaosLoops runs a constant-motion scenario and counts instantaneous
// successor cycles across frequent global snapshots.
func chaosLoops(t *testing.T, proto scenario.ProtocolName, seed int64) int {
	t.Helper()
	cfg := scenario.Nodes50(proto, 8, 0, seed)
	cfg.Nodes = 25
	cfg.SimTime = 45 * time.Second
	nw, gen, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	gen.Start()
	loops := 0
	for tick := time.Second; tick < cfg.SimTime; tick += 250 * time.Millisecond {
		nw.Sim.At(tick, func() {
			for _, v := range loopcheck.Check(nw.Nodes) {
				if len(v.Cycle) > 0 {
					loops++
				}
			}
		})
	}
	nw.Sim.Run(cfg.SimTime)
	return loops
}

// TestChaosNoRoutingLoops: LDR and AODV claim loop-freedom at every
// instant; under constant motion their successor graphs must never show a
// cycle. OLSR only *tolerates* temporary loops (the paper's §1 wording),
// which the companion test below demonstrates rather than forbids.
func TestChaosNoRoutingLoops(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				if loops := chaosLoops(t, proto, seed); loops > 0 {
					t.Fatalf("seed %d: %d instantaneous routing loops", seed, loops)
				}
			}
		})
	}
}

// TestOLSRToleratesTransientLoops documents the proactive baseline's
// different guarantee: under high mobility its link-state tables pass
// through transient loops while HELLO/TC refloods catch up. This is
// expected protocol behaviour (§1 classifies OLSR as loop-tolerant), and
// the contrast is the motivation for LDR's instantaneous invariants.
func TestOLSRToleratesTransientLoops(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 3; seed++ {
		total += chaosLoops(t, scenario.OLSR, seed)
	}
	t.Logf("OLSR transient loops over 3 chaotic runs: %d", total)
	if total == 0 {
		t.Skip("no transient loops observed at these seeds (not an error)")
	}
}

// TestChaosLDRAllOptionsOrderingCriterion also enforces the full ordering
// criterion (not just acyclicity) for LDR with every optimization enabled,
// its default configuration.
func TestChaosLDRAllOptionsOrderingCriterion(t *testing.T) {
	for seed := int64(4); seed <= 6; seed++ {
		cfg := scenario.Nodes50(scenario.LDR, 8, 0, seed)
		cfg.Nodes = 25
		cfg.SimTime = 45 * time.Second
		nw, gen, err := scenario.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		gen.Start()
		for tick := time.Second; tick < cfg.SimTime; tick += 250 * time.Millisecond {
			nw.Sim.At(tick, func() {
				for _, v := range loopcheck.Check(nw.Nodes) {
					t.Errorf("seed %d: %v", seed, v)
				}
			})
		}
		nw.Sim.Run(cfg.SimTime)
		if t.Failed() {
			return
		}
	}
}

// TestDeliveryBoundedByReachability sanity-checks the metrics against
// physics: nothing is delivered that was not sent, and no path is shorter
// than one hop or longer than the TTL budget.
func TestDeliveryBoundedByReachability(t *testing.T) {
	cfg := scenario.Nodes50(scenario.LDR, 5, 30*time.Second, 9)
	cfg.Nodes = 20
	cfg.SimTime = 60 * time.Second
	nw, gen, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	nw.Start()
	gen.Start()
	nw.Sim.Run(cfg.SimTime)

	ratio := nw.Collector.DeliveryRatio()
	if ratio > 1.0 {
		t.Fatalf("delivery ratio %v exceeds 1", ratio)
	}
	if nw.Collector.DataDelivered > nw.Collector.DataInitiated {
		t.Fatal("delivered more packets than initiated")
	}
	// Mean hop count must be at least 1 and at most the TTL budget.
	if h := nw.Collector.MeanHops(); h < 1 || h > 64 {
		t.Fatalf("mean hops = %v, outside [1, 64]", h)
	}
}
