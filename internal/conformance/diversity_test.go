package conformance

import (
	"bytes"
	"testing"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/sweep"
)

// TestDiversityByteIdenticalAcrossWorkers: every protocol, with and
// without faults, keeps the replay guarantee the rest of the suite relies
// on — same spec, same trace, at any worker count (the
// TestPoolRecyclingByteIdentical capture-diff pattern applied across
// protocols and fault profiles).
func TestDiversityByteIdenticalAcrossWorkers(t *testing.T) {
	specs := []Spec{
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 31, Profile: "reboot"},
		{Protocol: "aodv", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 32, Profile: "mayhem"},
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 33, Profile: "none"},
		{Protocol: "dsr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 34, Profile: "none"},
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 35, Profile: "reboot"},
		{Protocol: "aodv", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 36, Profile: "none"},
		{Protocol: "olsr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 37, Profile: "none"},
	}
	capture := func(workers int) []*Log {
		logs := make([]*Log, len(specs))
		err := sweep.Each(len(specs), sweep.Options{Workers: workers}, func(i int) error {
			cfg, err := specs[i].Config()
			if err != nil {
				return err
			}
			l, err := Capture(cfg)
			if err != nil {
				return err
			}
			logs[i] = l
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	serial := capture(1)
	parallel := capture(4)
	for i := range specs {
		if serial[i].Len() == 0 {
			t.Fatalf("%s: empty trace log", specs[i])
		}
		if !bytes.Equal(serial[i].Bytes(), parallel[i].Bytes()) {
			t.Fatalf("%s diverges across worker counts: %v", specs[i], Diff(serial[i], parallel[i]))
		}
	}
}

// TestLDRCleanAcrossDiversityMatrix: the paper's loop-freedom claim must
// survive every fault profile, and every run must still satisfy
// conservation and the vanished-packet census.
func TestLDRCleanAcrossDiversityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in full mode only")
	}
	check := func(s Spec) {
		t.Helper()
		r, err := CheckSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Total > 0 {
			t.Fatalf("%s: %d conservation violations: %v", s, r.Total, r.Violations)
		}
		if r.Collector.LoopViolations > 0 {
			t.Fatalf("%s: %d loop violations", s, r.Collector.LoopViolations)
		}
		if r.Collector.DeliveryRatio() > 1 {
			t.Fatalf("%s: delivery ratio %.3f > 1", s, r.Collector.DeliveryRatio())
		}
	}
	for _, profile := range fault.ProfileNames() {
		check(Spec{
			Protocol: "ldr", Nodes: 15, Flows: 3,
			SimTimeSec: 8, Seed: 41, Profile: profile,
			AuditMS: 100,
		})
	}
}
