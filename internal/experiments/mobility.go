package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/manetlab/ldr/internal/scenario"
)

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
// outcome). Each model runs at constant motion (50 nodes, 30 flows, pause
// 0), overriding Options.Axes, with a ranking line, so a flip is visible
// at a glance and greppable from CI logs.
func Mobility(o Options) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad}
	var secs []section[runMetrics]
	for _, model := range scenario.Mobilities() {
		var cells []scenario.Config
		for _, proto := range o.Protocols {
			cells = append(cells, o.trials(proto, 50, 30, 0, func(cfg *scenario.Config) { cfg.Mobility = model })...)
		}
		// The ranking needs every protocol's means, so the whole
		// model is one row that prints a line per protocol.
		body := row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) {
			delivery, overhead := map[scenario.ProtocolName]float64{}, map[scenario.ProtocolName]float64{}
			for i, proto := range o.Protocols {
				block := ms[i*o.Trials : (i+1)*o.Trials]
				ciLine(w, string(proto), 8, cols, block)
				delivery[proto] = summarize(block, colDelivery.get).Mean
				overhead[proto] = summarize(block, colNetLoad.get).Mean
			}
			fmt.Fprintf(w, "ranking %-12s delivery: %s   overhead: %s\n", model,
				ranked(o.Protocols, func(a, b scenario.ProtocolName) bool { return delivery[a] > delivery[b] }),
				ranked(o.Protocols, func(a, b scenario.ProtocolName) bool { return overhead[a] < overhead[b] }))
		}}
		secs = append(secs, section[runMetrics]{
			header: ciHeader(fmt.Sprintf("\nMobility — %s (50 nodes, 30 flows, pause 0, %v sim, %d trials)\n",
				model, o.SimTime, o.Trials), "proto", 8, cols),
			rows: []row[runMetrics]{body},
		})
	}
	return runTable(o, "metrics", measureRun, secs)
}
