package experiments_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// TestChaosJournalResumeByteIdentical: a journaled chaos run re-rendered
// from a fresh process loads every cell from the journal and produces
// the same bytes as the uninterrupted run — the experiments-layer half
// of the kill-resume contract (the cmd-level half is `make resume-smoke`).
func TestChaosJournalResumeByteIdentical(t *testing.T) {
	base := tiny(scenario.LDR, scenario.AODV)
	base.SimTime = 12 * time.Second
	base.Profiles = []string{"reboot"}
	base.Workers = 2

	ref := render(t, base, experiments.Chaos)

	dir := t.TempDir()
	j, err := resilience.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Exec = sweep.ExecOptions{Journal: j}
	first := render(t, o, experiments.Chaos)
	if first != ref {
		t.Fatalf("journaled run differs from plain run\n--- plain ---\n%s\n--- journaled ---\n%s", ref, first)
	}
	// 1 profile × 2 pauses × 2 protos × 1 trial.
	if j.Len() != 4 {
		t.Fatalf("journal holds %d records, want 4", j.Len())
	}

	j2, err := resilience.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var prog sweep.Progress
	o = base
	o.Exec = sweep.ExecOptions{Journal: j2}
	o.Progress = &prog
	resumed := render(t, o, experiments.Chaos)
	if prog.Loaded() != 4 {
		t.Fatalf("resume loaded %d of 4 cells", prog.Loaded())
	}
	if resumed != ref {
		t.Fatalf("resumed output differs\n--- reference ---\n%s\n--- resumed ---\n%s", ref, resumed)
	}
}

// expPoisoned panics on Start — an injected protocol bug for the
// keep-going contract test.
type expPoisoned struct{}

func (expPoisoned) Start()                                         { panic("experiments: deliberate test panic") }
func (expPoisoned) HandleControl(routing.NodeID, routing.Message)  {}
func (expPoisoned) HandleData(routing.NodeID, *routing.DataPacket) {}
func (expPoisoned) Originate(*routing.DataPacket)                  {}
func (expPoisoned) Stop()                                          {}

// TestKeepGoingRendersPartialTable: with a panicking protocol in the
// matrix and Exec.KeepGoing set, an experiment still renders its table —
// the healthy protocol's rows carry real data — and returns the
// sweep.Failures naming every quarantined cell.
func TestKeepGoingRendersPartialTable(t *testing.T) {
	const poisoned scenario.ProtocolName = "exp-poisoned"
	scenario.RegisterProtocol(poisoned, func(*routing.Node) routing.Protocol {
		return expPoisoned{}
	})

	o := tiny(scenario.LDR, poisoned)
	o.SimTime = 12 * time.Second
	o.Workers = 2
	o.Exec = sweep.ExecOptions{KeepGoing: true}
	var buf strings.Builder
	o.Out = &buf

	err := experiments.DeliveryFigure(o, "Fig KG", 15, 3)
	var fs sweep.Failures
	if !errors.As(err, &fs) {
		t.Fatalf("err = %T %v, want sweep.Failures", err, err)
	}
	// PauseTimes(12s) = 2 pauses × 1 trial of the poisoned protocol.
	if len(fs) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(fs), fs)
	}
	for _, ce := range fs {
		if resilience.Kind(ce.Err) != "panic" {
			t.Fatalf("cell %d failure kind %q, want panic", ce.Index, resilience.Kind(ce.Err))
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Fig KG") || !strings.Contains(out, string(poisoned)) {
		t.Fatalf("partial table missing header/columns:\n%s", out)
	}
	// The healthy series still carries non-zero delivery data.
	if !strings.Contains(out, "±") {
		t.Fatalf("partial table has no data rows:\n%s", out)
	}
}
