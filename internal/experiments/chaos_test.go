package experiments_test

import (
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/scenario"
)

// chaosTiny keeps the chaos table to a handful of 20-second cells.
func chaosTiny(workers int) (experiments.Options, *strings.Builder) {
	var buf strings.Builder
	o := tiny(scenario.LDR, scenario.AODV)
	o.Out = &buf
	o.Workers = workers
	o.Profiles = []string{"reboot"}
	return o, &buf
}

func TestChaosRendersTable(t *testing.T) {
	o, buf := chaosTiny(0)
	if err := experiments.Chaos(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "profile reboot") {
		t.Fatalf("missing profile header:\n%s", out)
	}
	for _, col := range []string{"loops", "order", "audits", "crashes", "ldr", "aodv"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing %q:\n%s", col, out)
		}
	}
	// One row per (pause, protocol): 2 pauses × 2 protocols.
	if rows := strings.Count(out, "±"); rows != 4 {
		t.Fatalf("want 4 data rows, got %d:\n%s", rows, out)
	}
}

// TestChaosOutputIdenticalAcrossWorkers is the acceptance bar from the
// issue: the chaos sweep must render byte-identically whatever the
// worker count, because cells are enumerated, seeded, and aggregated in
// a fixed order and each simulation is single-threaded and
// virtual-time-only.
func TestChaosOutputIdenticalAcrossWorkers(t *testing.T) {
	serialOpts, serial := chaosTiny(1)
	if err := experiments.Chaos(serialOpts); err != nil {
		t.Fatal(err)
	}
	parallelOpts, parallel := chaosTiny(3)
	if err := experiments.Chaos(parallelOpts); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("chaos output differs between -workers 1 and 3:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}
