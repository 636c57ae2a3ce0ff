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
// mechanism removed, made by Edit on a cell. ldr-full's Edit leaves the
// cell as it is, so its cells are the figures' own LDR cells, journal
// keys included.
type LDRVariant struct {
	Name string
	Edit func(*scenario.Config)
}

// Variants enumerates the ablations of the design choices the paper's §4
// calls out explicitly, and of the reset leg.
func Variants() []LDRVariant {
	return []LDRVariant{
		{Name: "ldr-full", Edit: func(*scenario.Config) {}},
		{Name: "no-multi-rrep", Edit: ldrEdit(func(c *core.Config) { c.MultipleRREPs = false })},
		{Name: "no-reduced-dist", Edit: ldrEdit(func(c *core.Config) { c.ReducedDistance = false })},
		{Name: "no-min-lifetime", Edit: ldrEdit(func(c *core.Config) { c.MinLifetime = false })},
		{Name: "no-optimal-ttl", Edit: ldrEdit(func(c *core.Config) { c.OptimalTTL = false })},
		{Name: "no-ring", Edit: noRing},
		{Name: "no-reset-leg", Edit: ldrEdit(func(c *core.Config) { c.ResetLeg = core.NoLeg })},
		{Name: "leg-dies", Edit: ldrEdit(func(c *core.Config) { c.ResetLeg = core.LegDies })},
	}
}

// ldrEdit returns the edit that runs LDR's defaults with mutate applied.
func ldrEdit(mutate func(*core.Config)) func(*scenario.Config) {
	return func(cfg *scenario.Config) {
		c := core.DefaultConfig()
		mutate(&c)
		cfg.LDRConfig = &c
	}
}

// noRing removes the expanding ring, from LDR or AODV: the first attempt
// floods network-wide, and a ring derived from a known route starts
// there too.
func noRing(cfg *scenario.Config) { cfg.RingStart = ondemand.NetDiameter }

// ablationCells are the three pause-0 cells the ablation runs: the light
// one of Fig. 2 and the loaded ones of Figs. 3 and 5, where on-demand
// overhead grows with load.
var ablationCells = []struct{ nodes, flows int }{{50, 10}, {50, 30}, {100, 30}}

// pairedWith names the arms, besides ldr-full, that an arm's Δ lines
// pair it with: the two no-ring arms with each other (LDR − AODV with
// neither ringing), the reset-leg arms with AODV, and aodv-no-ring with
// AODV (the ring's own effect on AODV).
var pairedWith = map[string][]string{
	"no-ring":      {"aodv-no-ring"},
	"no-reset-leg": {"aodv"},
	"leg-dies":     {"aodv"},
	"aodv-no-ring": {"aodv"},
}

// Ablation measures each LDR variant against ldr-full, with AODV, with
// and without its ring, as the reference, at pause 0 in each of
// ablationCells. Every arm prints mean ± CI, then its paired Δ against
// ldr-full over the same seeds, and against the arms pairedWith names.
// The 50-node, 10-flow section also runs OLSR with and without the FIFO
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
			arms = append(arms, arm{v.Name, scenario.LDR, []func(*scenario.Config){v.Edit}})
		}
		arms = append(arms, arm{"aodv", scenario.AODV, nil}, arm{"aodv-no-ring", scenario.AODV, []func(*scenario.Config){noRing}})
		if c.nodes == 50 && c.flows == 10 {
			arms = append(arms, arm{"olsr", scenario.OLSR, nil}, arm{"olsr-nojitter", scenario.OLSRJ, nil},
				// MAC-level ablation: LDR with RTS/CTS virtual carrier sensing.
				arm{"ldr+rtscts", scenario.LDR, []func(*scenario.Config){func(cfg *scenario.Config) { cfg.RTSCTS = true }}})
		}
		index := map[string]int{}
		var cells []scenario.Config
		for i, a := range arms {
			index[a.name] = i
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
				for _, ref := range pairedWith[a.name] {
					deltaLine(w, "  Δ "+ref, 16, cols, bs[i], bs[index[ref]])
				}
			}
		}}
		header := fmt.Sprintf("\nAblation — %d nodes, %d flows, pause 0 s, %v sim, %d trials (Δ x: arm − x, paired by seed; k/n seeds above)\n%-16s",
			c.nodes, c.flows, o.SimTime, o.Trials, "variant")
		for _, col := range cols {
			header += fmt.Sprintf(" %15s%8s", col.name, "")
		}
		secs = append(secs, section[runMetrics]{header: strings.TrimRight(header, " ") + "\n", rows: []row[runMetrics]{body}})
	}
	return runTable(o, "metrics", measureRun, secs)
}
