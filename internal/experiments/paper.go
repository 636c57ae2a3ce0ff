package experiments

import (
	"fmt"
	"io"

	"github.com/manetlab/ldr/internal/scenario"
)

// Table1 reproduces the paper's Table 1: for each flow count, every
// metric averaged over all pause times and both the 50- and 100-node
// scenarios, reported as mean ± 95% CI per protocol.
func Table1(o Options) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad, colRREQLoad, colRREPInit, colRREPRecv}
	var secs []section[runMetrics]
	for _, flows := range []int{10, 30} {
		sec := section[runMetrics]{header: ciHeader(fmt.Sprintf(
			"\nTable 1 — %d flows (mean ± 95%% CI over pause times × {50,100} nodes × %d trials, %v sim)\n",
			flows, o.Trials, o.SimTime), "proto", 8, cols)}
		for _, proto := range o.Protocols {
			var cells []scenario.Config
			for _, pause := range scenario.PauseTimes(o.SimTime) {
				for _, seed := range o.trialSeeds() {
					cells = append(cells, o.Cell(proto, 50, flows, pause, seed), o.Cell(proto, 100, flows, pause, seed))
				}
			}
			sec.rows = append(sec.rows, ciRow(string(proto), 8, cols, cells))
		}
		secs = append(secs, sec)
	}
	return runTable(o, "metrics", measureRun, secs)
}

// series is one curve of a figure: a protocol at a flow count.
type series struct {
	name  string
	proto scenario.ProtocolName
	flows int
}

// figure is Figs. 2–7: one metric against pause time, a row per pause
// and a mean ± CI column per series.
func figure(o Options, title string, nodes int, curves []series, metric func(runMetrics) float64) error {
	header := title + fmt.Sprintf("%-8s", "pause_s")
	for _, c := range curves {
		header += fmt.Sprintf(" %18s", c.name)
	}
	sec := section[runMetrics]{header: header + "\n"}
	for _, pause := range scenario.PauseTimes(o.SimTime) {
		var cells []scenario.Config
		for _, c := range curves {
			cells = append(cells, o.trials(c.proto, nodes, c.flows, pause)...)
		}
		sec.rows = append(sec.rows, row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) {
			fmt.Fprintf(w, "%-8.0f", pause.Seconds())
			for ; len(ms) > 0; ms = ms[o.Trials:] {
				s := summarize(ms[:o.Trials], metric)
				fmt.Fprintf(w, "    %7.2f ±%5.2f", s.Mean, s.CI95)
			}
			fmt.Fprintln(w)
		}})
	}
	return runTable(o, "metrics", measureRun, []section[runMetrics]{sec})
}

// DeliveryFigure reproduces Figs. 2–5: delivery ratio vs pause time for
// one (node count, flow count) cell, one series per protocol.
func DeliveryFigure(o Options, id string, nodes, flows int) error {
	o = o.Defaults()
	curves := make([]series, len(o.Protocols))
	for i, proto := range o.Protocols {
		curves[i] = series{string(proto), proto, flows}
	}
	return figure(o, fmt.Sprintf("\n%s — delivery ratio vs pause time (%d nodes, %d flows, %v sim, %d trials)\n",
		id, nodes, flows, o.SimTime, o.Trials), nodes, curves, colDelivery.get)
}

// Fig6 reproduces the QualNet cross-check: the Fig. 3 scenario (50 nodes,
// 30 flows) re-run with the draft-7 DSR variant against AODV — DSR
// improves slightly but keeps its downward mobility trend.
func Fig6(o Options) error {
	o.Protocols = []scenario.ProtocolName{scenario.AODV, scenario.DSR, scenario.DSR7}
	return DeliveryFigure(o, "Fig 6 (QualNet cross-check: DSR draft 3 vs draft 7)", 50, 30)
}

// Fig7 reproduces the mean destination sequence number comparison between
// LDR and AODV at low (10-flow) and high (30-flow) load. The paper's
// headline: LDR's means stay below ~1.5 while AODV's grow by orders of
// magnitude, because only LDR destinations control their own numbers.
func Fig7(o Options) error {
	o = o.Defaults()
	return figure(o, fmt.Sprintf("\nFig 7 — mean destination sequence number (50 nodes, %v sim, %d trials)\n",
		o.SimTime, o.Trials), 50, []series{
		{"ldr-10f", scenario.LDR, 10}, {"aodv-10f", scenario.AODV, 10},
		{"ldr-30f", scenario.LDR, 30}, {"aodv-30f", scenario.AODV, 30},
	}, func(m runMetrics) float64 { return m.Seqno })
}
