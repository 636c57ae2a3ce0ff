package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// matrixSpec is one conservation cell: small enough that the full
// protocol × profile matrix stays test-sized, long enough for crash
// rounds, lossy windows, and route churn to all fire.
func matrixSpec(proto scenario.ProtocolName, profile string) Spec {
	return Spec{
		Protocol:   string(proto),
		Nodes:      15,
		Flows:      3,
		PauseSec:   0,
		SimTimeSec: 8,
		Seed:       1000,
		Profile:    profile,
		AuditMS:    100,
	}
}

// TestConservationMatrix is the acceptance sweep: all four protocols ×
// every fault profile, audited continuously, under sweep worker counts
// 1 and 8. Every cell must conserve packets exactly, never deliver more
// than was sent, and produce identical counters at both worker counts.
func TestConservationMatrix(t *testing.T) {
	var specs []Spec
	for _, proto := range scenario.AllProtocols {
		for _, profile := range fault.ProfileNames() {
			specs = append(specs, matrixSpec(proto, profile))
		}
	}

	type cell struct {
		initiated, delivered, dropped uint64
		inFlight                      int64
	}
	run := func(workers int) []cell {
		out := make([]cell, len(specs))
		err := sweep.Each(len(specs), sweep.Options{Workers: workers}, func(i int) error {
			r, err := CheckSpec(specs[i])
			if err != nil {
				return err
			}
			if r.Total > 0 {
				return fmt.Errorf("%s: %d violations, first: %v", specs[i], r.Total, r.Violations[0])
			}
			c := r.Collector
			if c.DeliveryRatio() > 1 {
				return fmt.Errorf("%s: delivery ratio %.3f > 1", specs[i], c.DeliveryRatio())
			}
			if int64(c.DataInitiated) != int64(c.DataDelivered)+int64(c.DataDropped)+c.InFlight() {
				return fmt.Errorf("%s: conservation broken: %d != %d+%d+%d",
					specs[i], c.DataInitiated, c.DataDelivered, c.DataDropped, c.InFlight())
			}
			if r.Checks == 0 {
				return fmt.Errorf("%s: auditor never ran", specs[i])
			}
			out[i] = cell{c.DataInitiated, c.DataDelivered, c.DataDropped, c.InFlight()}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}

	serial := run(1)
	parallel := run(8)
	for i := range specs {
		if serial[i] != parallel[i] {
			t.Fatalf("%s: counters differ across worker counts: %+v vs %+v",
				specs[i], serial[i], parallel[i])
		}
	}
}

// TestDeliveryRatioAtMostOneUnderEveryProfile is the chaos regression
// for the duplicate-delivery bug: under the lossy profiles the radio
// hands some frames to the MAC twice, and before destination-side
// dedup that inflated DataDelivered past DataInitiated.
func TestDeliveryRatioAtMostOneUnderEveryProfile(t *testing.T) {
	for _, profile := range fault.ProfileNames() {
		for _, proto := range scenario.AllProtocols {
			s := matrixSpec(proto, profile)
			s.Seed = 77
			r, err := CheckSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			c := r.Collector
			if c.DeliveryRatio() > 1 {
				t.Fatalf("%s: delivery ratio %.3f > 1 (delivered %d > initiated %d)",
					s, c.DeliveryRatio(), c.DataDelivered, c.DataInitiated)
			}
			if c.DataDelivered > c.DataInitiated {
				t.Fatalf("%s: delivered %d > initiated %d", s, c.DataDelivered, c.DataInitiated)
			}
		}
	}
}

// TestRegressionSeeds replays every committed shrunk reproducer in
// testdata/: scenarios that violated conservation before the
// crash-wipe and duplicate-delivery fixes must now run clean.
func TestRegressionSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no regression seeds committed under testdata/")
	}
	for _, path := range files {
		if filepath.Base(path) == "golden.json" {
			continue // TestGoldenFingerprints' data, not a seed
		}
		s, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := CheckSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total > 0 {
			t.Errorf("%s (%s): %d violations, first: %v",
				filepath.Base(path), s, r.Total, r.Violations[0])
		}
		if violates(s, r) {
			t.Errorf("%s (%s): still violating", filepath.Base(path), s)
		}
	}
}

// TestLoadSpecRejectsUnknownKeys: a seed carrying a key the Spec does not
// have — a retired axis, a typo — would replay a different scenario than
// it names, so it must fail to load with the key in the message, as must
// anything after the object. Every committed seed still loads.
func TestLoadSpecRejectsUnknownKeys(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("..", "*", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for _, path := range seeds {
		if filepath.Base(path) == "golden.json" {
			continue // TestGoldenFingerprints' data, not a Spec
		}
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("committed seed no longer loads: %v", err)
		}
		loaded++
	}
	if loaded < 5 {
		t.Errorf("found %d committed seeds under internal/*/testdata, want the conformance, adversary and modelcheck ones", loaded)
	}

	const ok = `"protocol": "ldr", "nodes": 8, "flows": 1, "simtime_sec": 2, "seed": 1, "profile": "none"`
	for _, c := range []struct{ name, body, want string }{
		{"retired axis", `{` + ok + `, "adaptive": true}`, `"adaptive"`},
		{"deleted axis", `{` + ok + `, "mobility": "waypoint"}`, `"mobility"`},
		{"misspelt key", `{` + ok + `, "profle": "none"}`, `"profle"`},
		{"misspelt script key", `{` + ok + `, "script": {"postions": []}}`, `"postions"`},
		{"trailing data", `{` + ok + `} {}`, "trailing data"},
	} {
		path := filepath.Join(t.TempDir(), "seed.json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadSpec error = %v, want one naming %s", c.name, err, c.want)
		}
	}
	path := filepath.Join(t.TempDir(), "seed.json")
	if err := os.WriteFile(path, []byte(`{`+ok+"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Errorf("a well-formed spec with a trailing newline: %v", err)
	}
}

// TestLedgerFlagsLifecycleViolations unit-tests the ledger's event
// grammar directly.
func TestLedgerFlagsLifecycleViolations(t *testing.T) {
	ev := func(kind routing.TraceEventKind, id uint64) routing.TraceEvent {
		return routing.TraceEvent{At: time.Second, Kind: kind, Src: 1, Dst: 2, ID: id}
	}

	l := NewLedger()
	l.Trace(ev(routing.TraceOriginate, 1))
	l.Trace(ev(routing.TraceDeliver, 1))
	l.Trace(ev(routing.TraceDeliver, 1)) // duplicate
	if got := l.ViolationCount(DuplicateDelivery); got != 1 {
		t.Fatalf("DuplicateDelivery = %d, want 1", got)
	}

	l.Trace(ev(routing.TraceOriginate, 2))
	l.Trace(ev(routing.TraceDrop, 2))
	l.Trace(ev(routing.TraceDrop, 2)) // late
	if got := l.ViolationCount(LateDrop); got != 1 {
		t.Fatalf("LateDrop = %d, want 1", got)
	}

	l.Trace(ev(routing.TraceOriginate, 3))
	l.Trace(ev(routing.TraceOriginate, 3)) // double originate
	if got := l.ViolationCount(DoubleOriginate); got != 1 {
		t.Fatalf("DoubleOriginate = %d, want 1", got)
	}

	l.Trace(ev(routing.TraceDeliver, 9)) // never originated
	if got := l.ViolationCount(Untracked); got != 1 {
		t.Fatalf("Untracked = %d, want 1", got)
	}

	l.Trace(ev(routing.TraceOriginate, 4))
	if l.Outstanding() != 2 { // id 3 (still in flight) and id 4
		t.Fatalf("Outstanding = %d, want 2", l.Outstanding())
	}
	if l.ViolationTotal() != 4 {
		t.Fatalf("ViolationTotal = %d, want 4", l.ViolationTotal())
	}
}
