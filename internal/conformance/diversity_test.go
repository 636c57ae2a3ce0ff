package conformance

import (
	"bytes"
	"testing"

	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// TestDiversityByteIdenticalAcrossWorkers: the new mobility models and
// traffic patterns must keep the replay guarantee the rest of the suite
// relies on — same spec, same trace, at any worker count (the
// TestPoolRecyclingByteIdentical capture-diff pattern applied to the
// scenario-diversity axes).
func TestDiversityByteIdenticalAcrossWorkers(t *testing.T) {
	specs := []Spec{
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 31,
			Profile: "reboot", Mobility: scenario.Manhattan, Traffic: "bursty"},
		{Protocol: "aodv", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 32,
			Profile: "mayhem", Mobility: scenario.GaussMarkov, Traffic: "reqresp"},
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 33,
			Profile: "none", Mobility: scenario.GaussMarkov},
		{Protocol: "dsr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 34,
			Profile: "none", Mobility: scenario.Manhattan, Traffic: "reqresp"},
		{Protocol: "ldr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 35,
			Profile: "reboot", Radio: scenario.RadioMixed, Density: scenario.DensityGradient},
		{Protocol: "aodv", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 36,
			Profile: "none", Mobility: scenario.GaussMarkov, Traffic: "bursty",
			Radio: scenario.RadioAsym, Density: scenario.DensityHotspot},
		{Protocol: "olsr", Nodes: 12, Flows: 3, SimTimeSec: 6, Seed: 37,
			Profile: "none", Radio: scenario.RadioAsym},
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
// survive every new mobility × traffic × fault combination — and every
// radio × density combination, where one-way links starve hello
// exchanges and route replies — and every run must still satisfy
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
	for _, mob := range scenario.Mobilities() {
		for _, traf := range []string{"cbr", "bursty", "reqresp"} {
			for _, profile := range []string{"none", "reboot"} {
				check(Spec{
					Protocol: "ldr", Nodes: 15, Flows: 3,
					SimTimeSec: 8, Seed: 41, Profile: profile,
					Mobility: mob, Traffic: traf,
					AuditMS: 100,
				})
			}
		}
	}
	for _, rad := range scenario.Radios() {
		for _, dens := range scenario.Densities() {
			for _, profile := range []string{"none", "reboot"} {
				check(Spec{
					Protocol: "ldr", Nodes: 15, Flows: 3,
					SimTimeSec: 8, Seed: 42, Profile: profile,
					Radio: rad, Density: dens,
					AuditMS: 100,
				})
			}
		}
	}
}

// TestHeteroRadioChaosClean: the acceptance scenario for the
// heterogeneous-radio work — mixed transmit-power classes over a
// density-gradient placement, under the mayhem fault profile, must
// finish with zero conservation or census violations and zero LDR
// loop violations even though many links are one-way.
func TestHeteroRadioChaosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario in full mode only")
	}
	s := Spec{
		Protocol: "ldr", Nodes: 25, Flows: 5,
		SimTimeSec: 12, Seed: 61, Profile: "mayhem",
		Radio: scenario.RadioMixed, Density: scenario.DensityGradient,
		AuditMS: 100,
	}
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
}
