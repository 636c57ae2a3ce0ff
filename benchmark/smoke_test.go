package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsEveryMetric runs each workload at the tiny scale,
// untraced pass, traced pass and drivers, and holds the output to
// BENCHMARK.json: every listed metric present, finite and well named, no
// unlisted one, no failed operation, and both forms of the driver's line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			o, err := execute(spec, root, options{workload: sw.Name, seed: 1, scale: "tiny", trace: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")})
			if err != nil {
				t.Fatal(err)
			}
			if o.OpsFailed != 0 || o.OpsTotal == 0 {
				t.Errorf("ops_failed %d of %d: %v", o.OpsFailed, o.OpsTotal, o.Failures)
			}
			for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
				for _, ms := range list {
					v, ok := o.Metrics[ms.Name]
					if !ok {
						t.Errorf("%s not emitted", ms.Name)
					}
					if !metricName.MatchString(ms.Name) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", ms.Name, v.Value)
					}
				}
			}
			for _, ms := range spec.EndToEnd {
				if o.Metrics[ms.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", ms.Name)
				}
			}
			if len(o.Metrics) != len(spec.EndToEnd)+len(spec.PerLayer) {
				t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(o.Metrics), len(spec.EndToEnd)+len(spec.PerLayer))
			}
			rest := o.Metrics["scenario.unattributed_share"].Value
			if sum := o.shares.sum() + rest; math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %v, want 1", sum)
			}
			for _, tracedLine := range []bool{false, true} {
				o.Traced = tracedLine
				line, err := o.driverLine(spec)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted int
					Failed    int
					Metrics   map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("%v in %s", err, line)
				}
				want := len(spec.EndToEnd)
				if tracedLine {
					want = len(spec.PerLayer)
				}
				if got.Correct == nil || !*got.Correct || got.Attempted != o.OpsTotal || len(got.Metrics) != want {
					t.Errorf("driver line %s", line)
				}
			}
		})
	}
}

// TestCompare: identical files agree; a slower wall_s beyond its bound, a
// moved counter and a moved digest each fail.
func TestCompare(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	base := func() *outcome {
		m := metricSet{"sim.events": {Value: 1000, Class: classC}, "sim.ns_per_event": {Value: 250, Class: classT}}
		for _, ms := range spec.EndToEnd {
			m[ms.Name] = metricValue{Value: 10, Class: classE}
		}
		return &outcome{Workload: "paper50", Seed: 1, Scale: "full", OpsTotal: 4, Digest: "aa", Metrics: m}
	}
	dir := t.TempDir()
	write := func(name string, edit func(*outcome)) string {
		o := base()
		edit(o)
		path := filepath.Join(dir, name)
		if err := writeResult(path, hostStamp{CalibSpinMs: 80}, o); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*outcome) {})
	for _, tc := range []struct {
		name string
		edit func(*outcome)
		ok   bool
		says string
	}{
		{"same", func(*outcome) {}, true, ""},
		{"noise", func(o *outcome) { o.Metrics["wall_s"] = metricValue{Value: 10.2, Class: classE} }, true, ""},
		{"timing-layer", func(o *outcome) { o.Metrics["sim.ns_per_event"] = metricValue{Value: 400, Class: classT} }, true, ""},
		{"slower", func(o *outcome) { o.Metrics["wall_s"] = metricValue{Value: 12, Class: classE} }, false, "FAIL   wall_s"},
		{"fewer-delivered", func(o *outcome) { o.Metrics["delivery_pct"] = metricValue{Value: 9, Class: classE} }, false, "FAIL   delivery_pct"},
		{"faster", func(o *outcome) { o.Metrics["wall_s"] = metricValue{Value: 5, Class: classE} }, true, "BETTER wall_s"},
		{"counter", func(o *outcome) { o.Metrics["sim.events"] = metricValue{Value: 1001, Class: classC} }, false, "counter sim.events"},
		{"digest", func(o *outcome) { o.Digest = "bb" }, false, "scenario.digest"},
		{"failed-op", func(o *outcome) { o.OpsFailed = 1 }, false, "ops_failed"},
		{"other-seed", func(o *outcome) { o.Seed = 2 }, false, "not the same input"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(spec, a, write(tc.name+".json", tc.edit), &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", tc.name, ok, tc.ok, tc.says, out.String())
		}
	}
	if _, err := compareFiles(spec, a, filepath.Join(dir, "missing.json"), os.Stderr); err == nil {
		t.Error("comparing against a missing file succeeded")
	}
}
