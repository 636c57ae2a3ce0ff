package experiments

// ModelCheck sweeps the bounded model checker over every non-isomorphic
// connected 3- and 4-node topology per protocol — the exhaustive
// small-world complement to the statistical sweeps: each cell explores
// every message interleaving, loss, and crash schedule within its
// budgets and checks the loopcheck invariants at every reachable state.

import (
	"fmt"
	"io"
	"strings"

	"github.com/manetlab/ldr/internal/modelcheck"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// mcCell is one (protocol × topology) exploration with its budgets.
type mcCell struct {
	proto string
	graph modelcheck.Graph
	opts  modelcheck.Options
}

// mcOptions picks exploration budgets by topology size. Three-node
// graphs get the full van Glabbeek regime (a crash AND a loss in the
// same schedule); four-node graphs branch far wider, so they trade the
// loss budget and two levels of depth for tractability (the K4 cell is
// ~600k states as it stands).
func mcOptions(n int) modelcheck.Options {
	if n <= 3 {
		return modelcheck.Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}
	}
	return modelcheck.Options{MaxDepth: 10, MaxResets: 1}
}

// ModelCheck runs the sweep and renders one row per cell: distinct
// states, transitions, and the verdict. LDR must come out clean on every
// topology; AODV's line violations are the van Glabbeek result and are
// reported, not failed. A cell cut short at the state cap without a
// violation has proved nothing, and fails the sweep by name once the
// table is out. Only protocols with model-checker state hooks
// (ldr, aodv) participate; others in Options.Protocols are skipped with
// a note.
func ModelCheck(o Options) error {
	o = o.Defaults()

	var protos []string
	var skipped []string
	for _, p := range o.Protocols {
		if modelcheck.Supports(string(p)) {
			protos = append(protos, string(p))
		} else {
			skipped = append(skipped, string(p))
		}
	}

	graphs, err := modelcheck.SweepGraphs(3, 4)
	if err != nil {
		return err
	}

	var cells []mcCell
	for _, p := range protos {
		for _, g := range graphs {
			cells = append(cells, mcCell{proto: p, graph: g, opts: mcOptions(g.N)})
		}
	}

	results := make([]*modelcheck.Result, len(cells))
	err = sweep.Each(len(cells), sweep.Options{Workers: o.Workers, Progress: o.Progress}, func(i int) error {
		c := cells[i]
		sc := &modelcheck.Scenario{Graph: c.graph, Protocol: c.proto, Seed: o.BaseSeed}
		res, err := modelcheck.Check(sc, c.opts)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", c.proto, c.graph, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	err = renderModelCheck(o.Out, protos, len(graphs), cells, results)
	for _, p := range skipped {
		fmt.Fprintf(o.Out, "%s: skipped (no model-checker state hooks)\n", p)
	}
	return err
}

// renderModelCheck prints the sweep's table and per-protocol tallies, and
// gives its verdict: an LDR violation fails it, and so does a cell of
// either protocol that was cut short without finding one.
func renderModelCheck(out io.Writer, protos []string, graphs int, cells []mcCell, results []*modelcheck.Result) error {
	fmt.Fprintf(out, "\nModel check: bounded-exhaustive exploration, loopcheck invariants at every state\n")
	fmt.Fprintf(out, "%-8s %-28s %5s %5s %6s %9s %12s  %s\n",
		"proto", "graph", "depth", "drops", "resets", "states", "transitions", "result")
	violations := map[string]int{}
	var truncated []string
	for i, c := range cells {
		res := results[i]
		verdict := "clean"
		if res.Truncated {
			verdict = "truncated"
			if res.Violation == nil {
				truncated = append(truncated, fmt.Sprintf("%s on %s", c.proto, c.graph))
			}
		}
		if res.Violation != nil {
			verdict = fmt.Sprintf("VIOLATION in %d steps", len(res.Violation.Trace))
			violations[c.proto]++
		}
		fmt.Fprintf(out, "%-8s %-28s %5d %5d %6d %9d %12d  %s\n",
			c.proto, c.graph, c.opts.MaxDepth, c.opts.MaxDrops, c.opts.MaxResets,
			res.States, res.Transitions, verdict)
	}
	for _, p := range protos {
		fmt.Fprintf(out, "%s: %d/%d topologies violating\n", p, violations[p], graphs)
	}
	if violations[string(scenario.LDR)] > 0 {
		return fmt.Errorf("experiments: LDR violated loop freedom in the model-check sweep")
	}
	if len(truncated) > 0 {
		return fmt.Errorf("experiments: model-check sweep truncated at the state cap, proving nothing for: %s", strings.Join(truncated, "; "))
	}
	return nil
}
