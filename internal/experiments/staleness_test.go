package experiments_test

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
)

// TestPaperRecordsAreFresh re-simulates one committed 900 s record per
// protocol — its cheapest cell in results/paper — and requires the
// journal's payload byte for byte. A journal key hashes the cell's
// config, not the code that ran it, so a protocol change that leaves the
// journal alone would otherwise re-render stale tables green. About 6 s
// on one core of a 2-vCPU Xeon.
func TestPaperRecordsAreFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six 900 s cells")
	}
	j, err := resilience.Open("../../results/paper/journal")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{SimTime: 900 * time.Second}
	for _, c := range []struct {
		proto scenario.ProtocolName
		flows int
		pause time.Duration
		table string
	}{
		{scenario.LDR, 10, 900 * time.Second, "Fig. 2"},
		{scenario.AODV, 10, 900 * time.Second, "Fig. 2"},
		{scenario.DSR, 10, 900 * time.Second, "Fig. 2"},
		{scenario.OLSR, 10, 900 * time.Second, "Fig. 2"},
		{scenario.DSR7, 30, 900 * time.Second, "Fig. 6"},
		{scenario.OLSRJ, 10, 0, "the ablation"},
	} {
		cfg := o.Cell(c.proto, 50, c.flows, c.pause, 1)
		key, err := resilience.SpecHash("metrics", cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := j.Get(key)
		if !ok {
			t.Fatalf("%s: %s's 50-node, %d-flow, pause %v cell is not on record", c.proto, c.table, c.flows, c.pause)
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(experiments.Measure(res))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: %s's record is stale — re-run the tables that hold %s cells into results/paper/journal\n journal %s\n    this %s",
				c.proto, c.table, c.proto, want, got)
		}
	}
}
