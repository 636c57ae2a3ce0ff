package experiments

import (
	"fmt"
	"io"

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
		res, err := scenario.RunWithControl(cfgs[i], ctl, o.Exec.Control)
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

// ciRow is the common row: a labelled block of cells printed by ciLine.
func ciRow(label string, width int, cols []column, cells []scenario.Config) row[runMetrics] {
	return row[runMetrics]{cells, func(w io.Writer, ms []runMetrics) { ciLine(w, label, width, cols, ms) }}
}
