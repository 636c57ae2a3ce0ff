package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

var (
	updateGolden  = flag.Bool("update", false, "rewrite testdata/render.golden from this build's output")
	goldenWorkers = flag.Int("workers", 2, "worker count TestRenderGolden sweeps with (the golden is the same at any)")
)

const goldenPath = "testdata/render.golden"

// TestRenderGolden is the cross-commit oracle for the experiments layer:
// every rendered byte of every statistical experiment at default axes,
// plus — per journal scope — the record key of the experiment's first
// cell and the payload journaled under it, compared against a file
// committed from an earlier build. A refactor of the table plumbing, the
// cell constructors or the payload structs that moves any of them fails
// here; `go test ./internal/experiments -run TestRenderGolden -update`
// regenerates the file after a deliberate change.
func TestRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ten tables (~40 s)")
	}
	const simTime = 8 * time.Second
	base := experiments.Options{Trials: 2, SimTime: simTime, Workers: *goldenWorkers}

	// firstCell is the config each scope's first record must be keyed by:
	// LDR, 50 nodes, 10 flows, pause 0, seed 1.
	firstCell := scenario.Nodes50(scenario.LDR, 10, 0, 1)
	firstCell.SimTime = simTime
	audited := firstCell
	audited.AuditCadence = 100 * time.Millisecond
	faulted := audited
	plan, err := fault.Profile(fault.ProfileNames()[0], 50, simTime)
	if err != nil {
		t.Fatal(err)
	}
	faulted.FaultPlan = &plan

	var out strings.Builder
	body := map[string]string{} // experiment name → its rendered table
	for _, e := range []struct {
		name  string
		fn    func(experiments.Options) error
		scope string // journal the run and pin first's record
		first scenario.Config
	}{
		{name: "table1", fn: experiments.Table1, scope: "metrics", first: firstCell},
		{name: "fig2", fn: func(o experiments.Options) error {
			return experiments.DeliveryFigure(o, "Fig 2", 50, 10)
		}},
		{name: "fig6", fn: experiments.Fig6},
		{name: "fig7", fn: experiments.Fig7},
		{name: "ablation", fn: experiments.Ablation},
		{name: "mobility", fn: experiments.Mobility},
		{name: "radio", fn: experiments.Radio},
		{name: "chaos", fn: experiments.Chaos, scope: "chaos", first: faulted},
		{name: "adversary", fn: experiments.Adversary, scope: "adversary", first: audited},
		// Ablation once ignored the scenario axes; pin that it no longer does.
		{name: "ablation+axes", fn: func(o experiments.Options) error {
			o.Axes = scenario.Axes{Mobility: scenario.Manhattan, TrafficPattern: "bursty", Radio: scenario.RadioAsym}
			return experiments.Ablation(o)
		}},
	} {
		o := base
		o.Out = &out
		var j *resilience.Journal
		if e.scope != "" {
			if j, err = resilience.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			o.Exec = sweep.ExecOptions{Journal: j}
		}
		fmt.Fprintf(&out, "=== %s\n", e.name)
		start := out.Len()
		if err := e.fn(o); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		body[e.name] = out.String()[start:]
		if j == nil {
			continue
		}
		key, err := resilience.SpecHash(e.scope, e.first)
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := j.Get(key)
		if !ok {
			t.Fatalf("%s: first cell's key %s is not in the %q journal", e.name, key, e.scope)
		}
		fmt.Fprintf(&out, "journal %s %s %s\n", e.scope, key, payload)
	}

	if body["ablation"] == body["ablation+axes"] {
		t.Fatal("Ablation renders the same bytes with and without the scenario axes set")
	}

	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("rendered output differs from %s (re-run with -update after a deliberate change)\n%s",
			goldenPath, firstDiff(string(want), got))
	}
}

// firstDiff reports the first line at which two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
