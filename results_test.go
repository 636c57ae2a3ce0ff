package ldr_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/sweep"
)

// paperJournal holds the paper-scale runs: every cell of every table in
// results/paper, content-addressed (`ldrbench -journal`).
const paperJournal = "results/paper/journal"

// TestResultsDocMatchesJournals holds the committed results to their
// journal: each table under results/ re-renders byte for byte from
// journal records alone, and EXPERIMENTS.md quotes it verbatim. A cell
// that is not on record is not simulated — its 1 ns watchdog fires at
// the first event — so a missing record fails in seconds.
func TestResultsDocMatchesJournals(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.Open(paperJournal)
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Corrupt(); n != 0 {
		t.Fatalf("%s: %d corrupt record(s)", paperJournal, n)
	}
	for _, r := range []struct {
		file, exp string
		trials    int
		simtime   time.Duration
	}{
		{"results/paper/fig2.txt", "fig2", 10, 900 * time.Second},
		{"results/paper/fig3.txt", "fig3", 10, 900 * time.Second},
		{"results/paper/fig4.txt", "fig4", 10, 900 * time.Second},
		{"results/paper/fig5.txt", "fig5", 10, 900 * time.Second},
		{"results/paper/fig6.txt", "fig6", 10, 900 * time.Second},
		{"results/paper/fig7.txt", "fig7", 10, 900 * time.Second},
		{"results/paper/table1.txt", "table1", 10, 900 * time.Second},
		{"results/paper/chaos.txt", "chaos", 10, 900 * time.Second},
		{"results/paper/ablation.txt", "ablation", 10, 900 * time.Second},
	} {
		want, err := os.ReadFile(r.file)
		if err != nil {
			t.Fatal(err)
		}
		e, err := experiments.Find(r.exp)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		var prog sweep.Progress
		err = e.Run(experiments.Options{
			Trials:   r.trials,
			SimTime:  r.simtime,
			Out:      &out,
			BaseSeed: 1,
			Progress: &prog,
			Exec:     sweep.ExecOptions{Journal: j, CellTimeout: time.Nanosecond},
		})
		if err != nil {
			t.Fatalf("%s: a cell is not on record in %s: %v", r.file, paperJournal, err)
		}
		if prog.Loaded() != prog.Total() {
			t.Fatalf("%s: %d of %d cells loaded from %s", r.file, prog.Loaded(), prog.Total(), paperJournal)
		}
		if out.String() != string(want) {
			t.Fatalf("%s differs from its journal's rendering:\n%s", r.file, out.String())
		}
		if !strings.Contains(string(doc), strings.TrimLeft(string(want), "\n")) {
			t.Errorf("EXPERIMENTS.md does not quote %s verbatim", r.file)
		}
	}
}
