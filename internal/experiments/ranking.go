package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/manetlab/ldr/internal/scenario"
)

// axis is one swept dimension of a ranking table: the profiles it takes
// and how one is stamped onto a cell, overriding whatever Options.Axes
// says for that dimension (the other axes still apply, so e.g.
// -traffic bursty -exp mobility composes).
type axis struct {
	prefix   string // "radio=" in "Radio — radio=asym"; empty when the table has one axis
	width    int    // the profile name's column width on the ranking line
	profiles []string
	apply    func(cfg *scenario.Config, profile string)
}

// rankingTable runs every protocol under every profile of every axis at
// constant motion (50 nodes, 30 flows, pause 0, where the models differ
// most), reporting delivery, latency and control overhead per profile
// plus an explicit protocol ranking line, so a flip between profiles is
// visible at a glance and greppable from CI logs.
func rankingTable(o Options, name string, axes []axis) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad}
	var secs []section[runMetrics]
	for _, ax := range axes {
		for _, profile := range ax.profiles {
			var cells []scenario.Config
			for _, proto := range o.Protocols {
				cells = append(cells, o.trials(proto, 50, 30, 0, func(cfg *scenario.Config) { ax.apply(cfg, profile) })...)
			}
			// The ranking needs every protocol's means, so the whole
			// profile is one row that prints a line per protocol.
			body := row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) {
				delivery, overhead := map[scenario.ProtocolName]float64{}, map[scenario.ProtocolName]float64{}
				for i, proto := range o.Protocols {
					block := ms[i*o.Trials : (i+1)*o.Trials]
					ciLine(w, string(proto), 8, cols, block)
					delivery[proto] = summarize(block, colDelivery.get).Mean
					overhead[proto] = summarize(block, colNetLoad.get).Mean
				}
				fmt.Fprintf(w, "ranking %s%-*s delivery: %s   overhead: %s\n", ax.prefix, ax.width, profile,
					ranked(o.Protocols, func(a, b scenario.ProtocolName) bool { return delivery[a] > delivery[b] }),
					ranked(o.Protocols, func(a, b scenario.ProtocolName) bool { return overhead[a] < overhead[b] }))
			}}
			secs = append(secs, section[runMetrics]{
				header: ciHeader(fmt.Sprintf("\n%s — %s%s (50 nodes, 30 flows, pause 0, %v sim, %d trials)\n",
					name, ax.prefix, profile, o.SimTime, o.Trials), "proto", 8, cols),
				rows: []row[runMetrics]{body},
			})
		}
	}
	return runTable(o, "metrics", measureRun, secs)
}

// ranked renders the protocols best-first under before; ties keep
// presentation order.
func ranked(protos []scenario.ProtocolName, before func(a, b scenario.ProtocolName) bool) string {
	names := make([]string, len(protos))
	for i, p := range protos {
		names[i] = string(p)
	}
	sort.SliceStable(names, func(i, j int) bool {
		return before(scenario.ProtocolName(names[i]), scenario.ProtocolName(names[j]))
	})
	return strings.Join(names, " > ")
}

// Mobility runs the scenario-diversity comparison: all four protocols
// under random waypoint, Manhattan-grid, and Gauss-Markov movement. The
// Manhattan-grid MANET literature ("Simulation Analysis of Routing
// Protocols using Manhattan Grid Mobility Model") reports protocol
// rankings flipping under street-constrained movement relative to
// open-field waypoint — this table is where that claim is checked
// against our implementations (see EXPERIMENTS.md for the recorded
// outcome).
func Mobility(o Options) error {
	return rankingTable(o, "Mobility", []axis{
		{"", 12, scenario.Mobilities(), func(cfg *scenario.Config, p string) { cfg.Mobility = p }},
	})
}

// Radio runs the heterogeneous-radio comparison: all four protocols
// under each transmit-power profile (uniform disk, mixed three-class,
// asym long/short) and then under each placement-density profile
// (uniform, gradient, hotspot). The asym profile is where
// bidirectionality assumptions bite: long-range nodes hear neighbors
// that cannot ACK back, so a protocol that installs routes from
// overheard traffic alone pays in MAC retry exhaustion and repair churn.
// The density profiles separate "sparse edge" effects (gradient) from
// "congested core" effects (hotspot) at a fixed node count.
func Radio(o Options) error {
	return rankingTable(o, "Radio", []axis{
		{"radio=", 10, scenario.Radios(), func(cfg *scenario.Config, p string) { cfg.Radio = p }},
		{"density=", 10, scenario.Densities(), func(cfg *scenario.Config, p string) { cfg.Density = p }},
	})
}
