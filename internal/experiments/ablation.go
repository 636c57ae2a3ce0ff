package experiments

import (
	"fmt"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/scenario"
)

// LDRVariant is one ablation point: an LDR configuration with a single
// optimization removed (or, for the OLSR row, the jitter queue toggled).
type LDRVariant struct {
	Name   string
	Mutate func(*core.Config)
}

// Variants enumerates the ablations of the design choices the paper's §4
// calls out explicitly.
func Variants() []LDRVariant {
	return []LDRVariant{
		{Name: "ldr-full", Mutate: func(*core.Config) {}},
		{Name: "no-multi-rrep", Mutate: func(c *core.Config) { c.MultipleRREPs = false }},
		{Name: "no-req-as-err", Mutate: func(c *core.Config) { c.RequestAsError = false }},
		{Name: "no-reduced-dist", Mutate: func(c *core.Config) { c.ReducedDistance = false }},
		{Name: "no-min-lifetime", Mutate: func(c *core.Config) { c.MinLifetime = false }},
		{Name: "no-optimal-ttl", Mutate: func(c *core.Config) { c.OptimalTTL = false }},
		{Name: "no-ring", Mutate: func(c *core.Config) {
			// Disable the expanding ring: first attempt floods network-wide.
			c.TTLStart = ondemand.NetDiameter
			c.OptimalTTL = false
		}},
		{Name: "ldr+multipath", Mutate: func(c *core.Config) {
			// Extension: loop-free alternate successors with instant
			// failover (the labeled-distance multipath direction).
			c.Multipath = true
		}},
	}
}

// Ablation measures each LDR variant (plus OLSR with and without the FIFO
// jitter queue) on the 50-node, 10-flow, constant-motion scenario — the
// regime where discovery efficiency matters most.
func Ablation(o Options) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad, colRREQLoad}
	sec := section[runMetrics]{header: ciHeader(fmt.Sprintf(
		"\nAblation — 50 nodes, 10 flows, pause 0 s, %v sim, %d trials\n", o.SimTime, o.Trials), "variant", 16, cols)}
	addRow := func(name string, proto scenario.ProtocolName, edit ...func(*scenario.Config)) {
		sec.rows = append(sec.rows, ciRow(name, 16, cols, o.trials(proto, 50, 10, 0, edit...)))
	}

	for _, v := range Variants() {
		ldrCfg := core.DefaultConfig()
		v.Mutate(&ldrCfg)
		addRow(v.Name, scenario.LDR, func(cfg *scenario.Config) { cfg.LDRConfig = &ldrCfg })
	}
	for _, proto := range []scenario.ProtocolName{scenario.OLSR, scenario.OLSRJ} {
		addRow(string(proto), proto)
	}
	// MAC-level ablation: LDR with RTS/CTS virtual carrier sensing.
	addRow("ldr+rtscts", scenario.LDR, func(cfg *scenario.Config) { cfg.RTSCTS = true })

	return runTable(o, "metrics", measureRun, []section[runMetrics]{sec})
}
