package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/manetlab/ldr/internal/scenario"
)

// Table1 reproduces the paper's Table 1: for each flow count, every
// metric averaged over all pause times and both the 50- and 100-node
// scenarios, reported as mean ± 95% CI per protocol, then LDR's paired
// difference from each other protocol and OLSR's from AODV.
func Table1(o Options) error {
	o = o.Defaults()
	cols := []column{colDelivery, colLatency, colNetLoad, colRREQLoad, colRREPInit, colRREPRecv}
	ps := pairs(o.Protocols, scenario.LDR)
	var secs []section[runMetrics]
	for _, flows := range []int{10, 30} {
		var cells []scenario.Config
		for _, proto := range o.Protocols {
			for _, pause := range scenario.PauseTimes(o.SimTime) {
				for _, seed := range o.trialSeeds() {
					cells = append(cells, o.Cell(proto, 50, flows, pause, seed), o.Cell(proto, 100, flows, pause, seed))
				}
			}
		}
		// The paired lines need every protocol's cells, so the section
		// is one row that prints a line per protocol, then the pairs.
		body := row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) {
			bs := blocks(cells, ms, len(cells)/len(o.Protocols))
			for i, proto := range o.Protocols {
				ciLine(w, string(proto), 8, cols, bs[i].ms)
			}
			for _, p := range ps {
				deltaLine(w, pairLabel(o.Protocols[p.a], o.Protocols[p.b]), 12, cols, bs[p.a], bs[p.b])
			}
		}}
		secs = append(secs, section[runMetrics]{header: ciHeader(fmt.Sprintf(
			"\nTable 1 — %d flows (mean ± 95%% CI over pause times × {50,100} nodes × %d trials, %v sim)\n",
			flows, o.Trials, o.SimTime), "proto", 8, cols), rows: []row[runMetrics]{body}})
	}
	return runTable(o, "metrics", measureRun, secs)
}

// pair is a paired difference a − b between two arms of a table, by
// their index.
type pair struct{ a, b int }

// pairs is ref − X for every other protocol X of protos (none when ref
// does not run), then OLSR − AODV when both run, the pair the verdicts
// quote beside LDR's, as indices into protos.
func pairs(protos []scenario.ProtocolName, ref scenario.ProtocolName) []pair {
	var ps []pair
	if r := slices.Index(protos, ref); r >= 0 {
		for i := range protos {
			if i != r {
				ps = append(ps, pair{r, i})
			}
		}
	}
	if o, a := slices.Index(protos, scenario.OLSR), slices.Index(protos, scenario.AODV); o >= 0 && a >= 0 {
		ps = append(ps, pair{o, a})
	}
	return ps
}

// pairLabel names a paired difference: "LDR − AODV" is LDR's lead over
// AODV, seed by seed.
func pairLabel(a, b scenario.ProtocolName) string {
	return strings.ToUpper(string(a)) + " − " + strings.ToUpper(string(b))
}

// series is one curve of a figure: a protocol at a flow count.
type series struct {
	name  string
	proto scenario.ProtocolName
	flows int
}

// figure is Figs. 2–7: one metric against pause time, a row per pause
// and a mean ± CI column per series. Each row is followed by the paired
// differences ps between curves, a line for each curve they start from.
func figure(o Options, title string, nodes int, curves []series, ps []pair, metric func(runMetrics) float64) error {
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
			bs := blocks(cells, ms, o.Trials)
			fmt.Fprintf(w, "%-8.0f", pause.Seconds())
			for _, b := range bs {
				s := summarize(b.ms, metric)
				fmt.Fprintf(w, "    %7.2f ±%5.2f", s.Mean, s.CI95)
			}
			fmt.Fprintln(w)
			line := fmt.Sprintf("%-8s", "")
			for k, p := range ps {
				line += fmt.Sprintf("   %s: %s", pairLabel(curves[p.a].proto, curves[p.b].proto), strings.TrimSpace(delta(bs[p.a].minus(bs[p.b], metric))))
				if k == len(ps)-1 || ps[k+1].a != p.a {
					fmt.Fprintln(w, line)
					line = fmt.Sprintf("%-8s", "")
				}
			}
		}})
	}
	return runTable(o, "metrics", measureRun, []section[runMetrics]{sec})
}

// DeliveryFigure reproduces Figs. 2–5: delivery ratio vs pause time for
// one (node count, flow count) cell, one series per protocol, each row
// followed by LDR's paired difference from the others and OLSR's from
// AODV.
func DeliveryFigure(o Options, id string, nodes, flows int) error {
	return deliveryFigure(o, id, nodes, flows, scenario.LDR)
}

// deliveryFigure is DeliveryFigure with ref's paired differences in
// place of LDR's.
func deliveryFigure(o Options, id string, nodes, flows int, ref scenario.ProtocolName) error {
	o = o.Defaults()
	curves := make([]series, len(o.Protocols))
	for i, proto := range o.Protocols {
		curves[i] = series{string(proto), proto, flows}
	}
	return figure(o, fmt.Sprintf("\n%s — delivery ratio vs pause time (%d nodes, %d flows, %v sim, %d trials)\n",
		id, nodes, flows, o.SimTime, o.Trials), nodes, curves, pairs(o.Protocols, ref), colDelivery.get)
}

// Fig6 reproduces the QualNet cross-check: the Fig. 3 scenario (50 nodes,
// 30 flows) re-run with the draft-7 DSR variant against AODV — DSR
// improves slightly but keeps its downward mobility trend. The paired
// lines are draft 7's difference from the others.
func Fig6(o Options) error {
	o.Protocols = []scenario.ProtocolName{scenario.AODV, scenario.DSR, scenario.DSR7}
	return deliveryFigure(o, "Fig 6 (QualNet cross-check: DSR draft 3 vs draft 7)", 50, 30, scenario.DSR7)
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
	}, nil, func(m runMetrics) float64 { return m.Seqno })
}
