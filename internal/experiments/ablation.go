package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/scenario"
)

// LDRVariant is one ablation point: an LDR configuration with a single
// optimization removed. Mutate is nil for ldr-full, which runs the
// defaults.
type LDRVariant struct {
	Name   string
	Mutate func(*core.Config)
}

// Variants enumerates the ablations of the design choices the paper's §4
// calls out explicitly.
func Variants() []LDRVariant {
	return []LDRVariant{
		{Name: "ldr-full"},
		{Name: "no-multi-rrep", Mutate: func(c *core.Config) { c.MultipleRREPs = false }},
		{Name: "no-reduced-dist", Mutate: func(c *core.Config) { c.ReducedDistance = false }},
		{Name: "no-min-lifetime", Mutate: func(c *core.Config) { c.MinLifetime = false }},
		{Name: "no-optimal-ttl", Mutate: func(c *core.Config) { c.OptimalTTL = false }},
		{Name: "no-ring", Mutate: func(c *core.Config) {
			// Disable the expanding ring: first attempt floods network-wide.
			c.TTLStart = ondemand.NetDiameter
			c.OptimalTTL = false
		}},
	}
}

// edit stamps the variant on a cell. ldr-full leaves LDRConfig nil, so
// its cells are the figures' own LDR cells, journal keys included.
func (v LDRVariant) edit(cfg *scenario.Config) {
	if v.Mutate == nil {
		return
	}
	c := core.DefaultConfig()
	v.Mutate(&c)
	cfg.LDRConfig = &c
}

// ablationCells are the three pause-0 cells the ablation runs: the light
// one of Fig. 2 and the loaded ones of Figs. 3 and 5, where on-demand
// overhead grows with load.
var ablationCells = []struct{ nodes, flows int }{{50, 10}, {50, 30}, {100, 30}}

// Ablation measures each LDR variant against ldr-full, with AODV as the
// reference, at pause 0 in each of ablationCells. Every arm prints mean ±
// CI, then its paired Δ against ldr-full over the same seeds. The
// 50-node, 10-flow section also runs OLSR with and without the FIFO
// jitter queue and LDR with RTS/CTS. ldr-full, AODV and OLSR are the
// figures' cells, so a journal that holds Figs. 2, 3 and 5 serves them.
func Ablation(o Options) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad, colRREQLoad}
	type arm struct {
		name  string
		proto scenario.ProtocolName
		edit  []func(*scenario.Config)
	}
	var secs []section[runMetrics]
	for _, c := range ablationCells {
		var arms []arm
		for _, v := range Variants() {
			arms = append(arms, arm{v.Name, scenario.LDR, []func(*scenario.Config){v.edit}})
		}
		arms = append(arms, arm{"aodv", scenario.AODV, nil})
		if c.nodes == 50 && c.flows == 10 {
			arms = append(arms, arm{"olsr", scenario.OLSR, nil}, arm{"olsr-nojitter", scenario.OLSRJ, nil},
				// MAC-level ablation: LDR with RTS/CTS virtual carrier sensing.
				arm{"ldr+rtscts", scenario.LDR, []func(*scenario.Config){func(cfg *scenario.Config) { cfg.RTSCTS = true }}})
		}
		var cells []scenario.Config
		for _, a := range arms {
			cells = append(cells, o.trials(a.proto, c.nodes, c.flows, 0, a.edit...)...)
		}
		// Every arm is paired with ldr-full, so the cell is one row.
		body := row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) {
			bs := blocks(cells, ms, o.Trials)
			for i, a := range arms {
				line := fmt.Sprintf("%-16s", a.name)
				for _, col := range cols {
					line += fmt.Sprintf(" %-23s", ci(summarize(bs[i].ms, col.get)))
				}
				fmt.Fprintln(w, strings.TrimRight(line, " "))
				if i > 0 {
					deltaLine(w, "  Δ ldr-full", 16, cols, bs[i], bs[0])
				}
			}
		}}
		header := fmt.Sprintf("\nAblation — %d nodes, %d flows, pause 0 s, %v sim, %d trials (Δ: arm − ldr-full, paired by seed; k/n seeds above)\n%-16s",
			c.nodes, c.flows, o.SimTime, o.Trials, "variant")
		for _, col := range cols {
			header += fmt.Sprintf(" %15s%8s", col.name, "")
		}
		secs = append(secs, section[runMetrics]{header: strings.TrimRight(header, " ") + "\n", rows: []row[runMetrics]{body}})
	}
	return runTable(o, "metrics", measureRun, secs)
}
