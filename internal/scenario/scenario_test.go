package scenario_test

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// small returns a scaled-down mobile scenario that runs in well under a
// second, for CI-grade integration tests.
func small(proto scenario.ProtocolName, seed int64) scenario.Config {
	cfg := scenario.Nodes50(proto, 5, 0 /* constant motion */, seed)
	cfg.Nodes = 20
	cfg.SimTime = 60 * time.Second
	return cfg
}

func TestAllProtocolsDeliverUnderMobility(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{
		scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7,
		scenario.OLSR, scenario.OLSRJ,
	} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res, err := scenario.Run(small(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			c := res.Collector
			if c.DataInitiated == 0 {
				t.Fatal("no data was initiated")
			}
			ratio := c.DeliveryRatio()
			if ratio < 0.30 {
				t.Fatalf("delivery ratio = %.2f (%d/%d), implausibly low",
					ratio, c.DataDelivered, c.DataInitiated)
			}
			t.Logf("%s: delivery=%.3f load=%.2f latency=%v events=%d",
				proto, ratio, c.NetworkLoad(), c.MeanLatency(), res.Events)
		})
	}
}

func TestLDRLoopFreeAtEveryInstant(t *testing.T) {
	cfg := small(scenario.LDR, 7)
	nw, gen, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	gen.Start()

	var violations []loopcheck.Violation
	// Check the global routing state every 100 ms of virtual time.
	var tick func()
	tick = func() {
		violations = append(violations, loopcheck.Check(nw.Nodes)...)
		if nw.Sim.Now() < cfg.SimTime && len(violations) == 0 {
			nw.Sim.Schedule(100*time.Millisecond, tick)
		}
	}
	nw.Sim.Schedule(100*time.Millisecond, tick)
	nw.Sim.Run(cfg.SimTime)

	for _, v := range violations {
		t.Error(v)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// Every protocol, not just LDR: OLSR once diverged run-to-run because
	// its BFS next-hop choice leaked Go map iteration order.
	for _, proto := range []scenario.ProtocolName{
		scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7,
		scenario.OLSR, scenario.OLSRJ,
	} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			a, err := scenario.Run(small(proto, 11))
			if err != nil {
				t.Fatal(err)
			}
			b, err := scenario.Run(small(proto, 11))
			if err != nil {
				t.Fatal(err)
			}
			if a.Events != b.Events ||
				a.Collector.DataDelivered != b.Collector.DataDelivered ||
				a.Collector.TotalControlTransmitted() != b.Collector.TotalControlTransmitted() {
				t.Fatalf("same seed diverged: events %d vs %d, delivered %d vs %d",
					a.Events, b.Events, a.Collector.DataDelivered, b.Collector.DataDelivered)
			}
		})
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := scenario.Run(small(scenario.LDR, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(small(scenario.LDR, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == b.Events && a.Collector.DataDelivered == b.Collector.DataDelivered {
		t.Fatal("different seeds produced identical runs; RNG plumbing is broken")
	}
}

// TestPaperDefaultsStayOutOfTheKey: a Config's JSON encoding is its
// journal key, and the paper's cell encodes its nine skeleton fields and
// nothing else, so a field whose zero value is the paper's setup can be
// added or deleted without moving any journal key.
func TestPaperDefaultsStayOutOfTheKey(t *testing.T) {
	blob, err := json.Marshal(scenario.Nodes50(scenario.LDR, 10, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"Flows", "MaxSpeed", "MinSpeed", "Nodes", "PauseTime", "Protocol", "Seed", "SimTime", "Terrain"}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("Nodes50 encodes %v, want only %v:\n%s", got, want, blob)
	}
}

// TestBuiltInIsWhatFactoryBuilds: BuiltIn names exactly the protocols
// Factory knows before anything is registered, and a registered name,
// which Factory then builds, is not one of them.
func TestBuiltInIsWhatFactoryBuilds(t *testing.T) {
	names := append(slices.Clone(scenario.AllProtocols), scenario.DSR7, scenario.OLSRJ, "ldr-builtin-probe")
	for _, name := range names {
		_, err := scenario.Factory(scenario.Config{Protocol: name})
		if scenario.BuiltIn(name) != (err == nil) {
			t.Errorf("%s: BuiltIn %v, Factory error %v", name, scenario.BuiltIn(name), err)
		}
	}
	scenario.RegisterProtocol("ldr-builtin-probe", func(n *routing.Node) routing.Protocol { return nil })
	if _, err := scenario.Factory(scenario.Config{Protocol: "ldr-builtin-probe"}); err != nil || scenario.BuiltIn("ldr-builtin-probe") {
		t.Errorf("a registered protocol: Factory error %v, BuiltIn %v", err, scenario.BuiltIn("ldr-builtin-probe"))
	}
}
