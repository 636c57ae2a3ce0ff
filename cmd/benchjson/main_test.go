package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with BENCHJSON_BE_MAIN set it runs main, so tests see real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHJSON_BE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchjson runs the command on stdin with args and returns its exit
// code and stderr.
func benchjson(t *testing.T, stdin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHJSON_BE_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestMaxRegressFailsWhenNothingCompared: a gate whose two sides share no
// B/op or allocs/op figure (the benchmarks ran without -benchmem) checked
// nothing and must say so with a failing exit, not pass; the baseline
// stays as committed. With the figures present the same gate passes,
// rewrites the baseline, and still catches a regression.
func TestMaxRegressFailsWhenNothingCompared(t *testing.T) {
	const (
		timeOnly = "BenchmarkAuditOverhead-4 3 1000 ns/op 41.5 audit-overhead-%\n"
		withMem  = "BenchmarkAuditOverhead-4 3 1000 ns/op 2048 B/op 10 allocs/op\n"
		fatter   = "BenchmarkAuditOverhead-4 3 1000 ns/op 4096 B/op 10 allocs/op\n"
	)
	file := filepath.Join(t.TempDir(), "BENCH.json")
	if code, stderr := benchjson(t, timeOnly, "-o", file); code != 0 {
		t.Fatalf("recording a baseline: exit %d: %s", code, stderr)
	}
	before, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	code, stderr := benchjson(t, timeOnly, "-o", file, "-maxregress", "10")
	if code == 0 || !strings.Contains(stderr, "compared nothing") {
		t.Errorf("gate with no memory figures on either side: exit %d, stderr %q; want a failure that says nothing was compared", code, stderr)
	}
	code, _ = benchjson(t, withMem, "-o", file, "-maxregress", "10")
	if code == 0 {
		t.Error("gate with memory figures on one side only passed")
	}
	if after, _ := os.ReadFile(file); !bytes.Equal(before, after) {
		t.Error("a failed gate rewrote the baseline")
	}

	if code, stderr := benchjson(t, withMem, "-o", file); code != 0 {
		t.Fatalf("re-recording the baseline: exit %d: %s", code, stderr)
	}
	if code, stderr := benchjson(t, withMem, "-o", file, "-maxregress", "10"); code != 0 {
		t.Errorf("gate with equal memory figures: exit %d: %s", code, stderr)
	}
	code, stderr = benchjson(t, fatter, "-o", file, "-maxregress", "10")
	if code == 0 || !strings.Contains(stderr, "regression") {
		t.Errorf("gate with doubled B/op: exit %d, stderr %q; want a regression failure", code, stderr)
	}
}

// goTestOutput is what `go test -bench -benchmem` prints, with the lines
// around the benchmarks that parse records or ignores.
const goTestOutput = `goos: linux
goarch: amd64
pkg: github.com/manetlab/ldr/internal/sweep
cpu: Imaginary CPU @ 2.00GHz
BenchmarkSweepSerial-4          2	 612345678 ns/op	  13.1 cells/sec	 1834567 events/sec	 4096 B/op	   31 allocs/op
BenchmarkSweepWorkers4-4        8	 153086419 ns/op	  52.3 cells/sec	 7338268 events/sec	 4100 B/op	   35 allocs/op
PASS
ok  	github.com/manetlab/ldr/internal/sweep	3.211s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(goTestOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Imaginary CPU @ 2.00GHz" {
		t.Fatalf("header = %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkSweepSerial" || r.GOMAXPROCS != 4 || r.Iterations != 2 {
		t.Fatalf("result 0 = %+v", r)
	}
	want := map[string]float64{
		"ns/op": 612345678, "cells/sec": 13.1, "events/sec": 1834567,
		"B/op": 4096, "allocs/op": 31,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

// TestGateMatchesAcrossGOMAXPROCS: `go test` appends "-N" to a benchmark's
// name at GOMAXPROCS N > 1 and nothing at 1. The gate must pair a run with
// its baseline under either spelling on either side — keyed by the raw
// name, a 2-core host compared nothing against the committed suffix-less
// baselines — and sub-benchmark names keep their slashes.
func TestGateMatchesAcrossGOMAXPROCS(t *testing.T) {
	const (
		bare     = "BenchmarkSweepSerial 3 1000 ns/op 2048 B/op 10 allocs/op\nBenchmarkAttackImpact/storm/ldr 1 9 ns/op 64 B/op 1 allocs/op\n"
		suffixed = "BenchmarkSweepSerial-2 3 1000 ns/op 2048 B/op 10 allocs/op\nBenchmarkAttackImpact/storm/ldr-2 1 9 ns/op 64 B/op 1 allocs/op\n"
		fatter   = "BenchmarkSweepSerial-16 3 1000 ns/op 4096 B/op 10 allocs/op\nBenchmarkAttackImpact/storm/ldr-16 1 9 ns/op 64 B/op 1 allocs/op\n"
	)
	for _, tc := range []struct{ name, base, run string }{
		{"baseline at 1, run at 2", bare, suffixed},
		{"baseline at 2, run at 1", suffixed, bare},
	} {
		file := filepath.Join(t.TempDir(), "BENCH.json")
		if code, stderr := benchjson(t, tc.base, "-o", file); code != 0 {
			t.Fatalf("%s: recording the baseline: exit %d: %s", tc.name, code, stderr)
		}
		if code, stderr := benchjson(t, tc.run, "-o", file, "-maxregress", "10"); code != 0 {
			t.Errorf("%s: gate with equal figures: exit %d: %s", tc.name, code, stderr)
		}
		code, stderr := benchjson(t, fatter, "-o", file, "-maxregress", "10")
		if code == 0 || !strings.Contains(stderr, "BenchmarkSweepSerial B/op 2048 -> 4096") {
			t.Errorf("%s: gate with doubled B/op at yet another GOMAXPROCS: exit %d, stderr %q; want that regression named", tc.name, code, stderr)
		}
	}

	for line, want := range map[string]Result{
		"BenchmarkX-8 5 12 ns/op":         {Name: "BenchmarkX", GOMAXPROCS: 8},
		"BenchmarkX 5 12 ns/op":           {Name: "BenchmarkX"},
		"BenchmarkX/a-b/ldr-2 5 12 ns/op": {Name: "BenchmarkX/a-b/ldr", GOMAXPROCS: 2},
		"BenchmarkX/a-b 5 12 ns/op":       {Name: "BenchmarkX/a-b"},
		"BenchmarkX-0 5 12 ns/op":         {Name: "BenchmarkX-0"},
	} {
		if got, ok := parseBench(line); !ok || got.Name != want.Name || got.GOMAXPROCS != want.GOMAXPROCS {
			t.Errorf("parseBench(%q) = %q at GOMAXPROCS %d, want %q at %d", line, got.Name, got.GOMAXPROCS, want.Name, want.GOMAXPROCS)
		}
	}
}

func TestParseBenchRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 12 ns/op",
		"BenchmarkX 5 garbage ns/op",
		"BenchmarkX-2 10 NaN ns/op",
		"BenchmarkX 5 +Inf ns/op",
		"BenchmarkX 5 12 ns/op -inf B/op",
		"BenchmarkX 5 12 ns/op 1e999 B/op",
	} {
		if _, ok := parseBench(line); ok {
			t.Errorf("parseBench(%q) accepted malformed input", line)
		}
	}
	// Before non-finite values were skipped, this failed in the JSON
	// encoder ("unsupported value: NaN") instead.
	if code, stderr := benchjson(t, "BenchmarkX-2 10 NaN ns/op\n"); code == 0 || !strings.Contains(stderr, "no benchmark lines") {
		t.Errorf("a NaN-only input: exit %d, stderr %q; want no benchmark lines found", code, stderr)
	}
}

// FuzzParse: whatever arrives on stdin, parse must not panic, and a report
// it returns must come back equal from the JSON round trip that writing it
// out and reading it back as a -maxregress baseline puts it through.
func FuzzParse(f *testing.F) {
	f.Add(goTestOutput)
	f.Add("BenchmarkX-2 10 NaN ns/op\nBenchmarkY 3 1 ns/op\n")
	f.Add("BenchmarkX/a-b/ldr-2 5 12 ns/op 0x1p-2 B/op -0 allocs/op odd\ngoos:\tlinux \n")
	f.Fuzz(func(t *testing.T, in string) {
		rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			return // a line past the scanner's limit: main reports it
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("report does not encode: %v\n%+v", err, rep)
		}
		var back Report
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("report does not decode: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(*rep, back) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", *rep, back)
		}
	})
}
