package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/stats"
	"github.com/manetlab/ldr/internal/sweep"
)

// Every statistical experiment is a table: sections, each a header and
// rows; each row the cells it averages over and the line it prints from
// their results. T is the per-cell payload — one type per journal scope,
// because each is a journal record format.
type section[T any] struct {
	header string
	rows   []row[T]
}

type row[T any] struct {
	cells  []scenario.Config
	render func(w io.Writer, ms []T) // ms[i] is cells[i]'s payload
}

// runTable is the one path from cells to rendered bytes: every row's
// cells in one list, fanned out across Options.Workers under the
// experiment's journal scope, then each row handed its own results.
// Rendering is serial and in enumeration order, so the output is
// byte-identical at any worker count. Under Exec.KeepGoing the table
// still renders — quarantined cells hold T's zero value — and the
// sweep.Failures error is returned after it.
func runTable[T any](o Options, scope string, measure func(scenario.Result) T, secs []section[T]) error {
	var cfgs []scenario.Config
	for _, s := range secs {
		for _, r := range s.rows {
			cfgs = append(cfgs, r.cells...)
		}
	}
	so := sweep.Options{Workers: o.Workers, Progress: o.Progress, Exec: o.Exec}
	so.Exec.Scope = scope
	ms, err := sweep.RunCells(cfgs, so, func(i int, ctl *scenario.Control) (T, error) {
		res, err := scenario.RunWithControl(cfgs[i], nil, ctl, o.Exec.Control)
		if err != nil {
			var zero T
			return zero, err
		}
		return measure(res), nil
	})
	if ms == nil {
		return err
	}
	for _, s := range secs {
		fmt.Fprint(o.Out, s.header)
		for _, r := range s.rows {
			r.render(o.Out, ms[:len(r.cells)])
			ms = ms[len(r.cells):]
		}
	}
	return err
}

// summarize reduces one field of a row's payloads to mean ± 95% CI.
func summarize[T any](ms []T, get func(T) float64) stats.Summary {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = get(m)
	}
	return stats.Summarize(xs)
}

func ci(s stats.Summary) string {
	return fmt.Sprintf("%8.2f ±%5.2f", s.Mean, s.CI95)
}

// column is one mean ± CI column of a runMetrics table.
type column struct {
	name string
	get  func(runMetrics) float64
}

var (
	colDelivery = column{"delivery %", func(m runMetrics) float64 { return m.Delivery }}
	colLatency  = column{"latency ms", func(m runMetrics) float64 { return m.Latency }}
	colNetLoad  = column{"net load", func(m runMetrics) float64 { return m.NetLoad }}
	colRREQLoad = column{"rreq load", func(m runMetrics) float64 { return m.RREQLoad }}
	colRREPInit = column{"rrep init", func(m runMetrics) float64 { return m.RREPInit }}
	colRREPRecv = column{"rrep recv", func(m runMetrics) float64 { return m.RREPRecv }}
)

// ciHeader is the title line plus the column-name line of such a table.
func ciHeader(title, label string, width int, cols []column) string {
	h := title + fmt.Sprintf("%-*s", width, label)
	for _, c := range cols {
		h += fmt.Sprintf(" %16s", c.name)
	}
	return h + "\n"
}

// ciLine prints a label, then every column's mean ± CI over ms.
func ciLine(w io.Writer, label string, width int, cols []column, ms []runMetrics) {
	fmt.Fprintf(w, "%-*s", width, label)
	for _, c := range cols {
		fmt.Fprintf(w, " %s", ci(summarize(ms, c.get)))
	}
	fmt.Fprintln(w)
}

// delta prints a paired difference the way ci prints a summary, with its
// sign count: "Δ ±ci (k/n)", k of the n seeds having the first arm higher.
func delta(p stats.Pair) string {
	return fmt.Sprintf("%+8.2f ±%5.2f (%d/%d)", p.Mean, p.CI95, p.Above, p.N)
}

// block is one arm of a row: its cells, one per trial, and their payloads.
type block struct {
	cells []scenario.Config
	ms    []runMetrics
}

// blocks cuts a row's cells and payloads into arms of n cells each.
func blocks(cells []scenario.Config, ms []runMetrics, n int) []block {
	var bs []block
	for i := 0; i < len(cells); i += n {
		bs = append(bs, block{cells[i : i+n], ms[i : i+n]})
	}
	return bs
}

// minus is a's paired difference from b in one column. Each cell of a
// is paired with b's at the same position, which must differ only in
// the arm: same seed (which fixes the mobility and traffic), nodes,
// flows and pause. A pairing out of step is a table built wrong, so it
// panics. Both arms are cells of the one table, so a partner missing
// from the journal fails the table like any missing record.
func (a block) minus(b block, get func(runMetrics) float64) stats.Pair {
	xs, ys := make([]float64, len(a.ms)), make([]float64, len(b.ms))
	for i, c := range a.cells {
		if d := b.cells[i]; c.Seed != d.Seed || c.Nodes != d.Nodes || c.Flows != d.Flows || c.PauseTime != d.PauseTime {
			panic(fmt.Sprintf("experiments: paired cells %d differ beyond their arm (seeds %d and %d)", i, c.Seed, d.Seed))
		}
		xs[i], ys[i] = get(a.ms[i]), get(b.ms[i])
	}
	p, err := stats.Paired(xs, ys)
	if err != nil {
		panic(err)
	}
	return p
}

// deltaLine prints a label, then a's paired difference from b in every
// column, each padded to fit the sign count.
func deltaLine(w io.Writer, label string, width int, cols []column, a, b block) {
	line := fmt.Sprintf("%-*s", width, label)
	for _, c := range cols {
		line += fmt.Sprintf(" %-23s", delta(a.minus(b, c.get)))
	}
	fmt.Fprintln(w, strings.TrimRight(line, " "))
}
