// Command benchjson converts `go test -bench` output on stdin into a
// JSON report. Standard metrics (ns/op, B/op, allocs/op) and custom
// b.ReportMetric units (cells/sec, events/sec, ...) are all captured, so
// the sweep and radio benchmark numbers can be committed as one file:
//
//	go test -bench 'Sweep' -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json
//
// Non-benchmark lines (ok/PASS/goos/...) are recorded as context where
// useful and otherwise ignored, so piping full `go test` output is fine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Result is one benchmark line. Name is the benchmark's name without the
// "-N" suffix `go test` appends at GOMAXPROCS N > 1, which is kept apart
// so that a run gates against a baseline recorded at another N.
type Result struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole file.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	maxRegress := flag.Float64("maxregress", 0,
		"max allowed %% regression in B/op and allocs/op vs the existing -o file; >0 enables the gate (exit 1, baseline kept)")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: go test -bench ... | benchjson [-o FILE] [-maxregress PCT]\n\n")
		fmt.Fprintf(w, "Convert `go test -bench` output on stdin into a JSON report. Standard\n")
		fmt.Fprintf(w, "metrics (ns/op, B/op, allocs/op) and custom b.ReportMetric units are\n")
		fmt.Fprintf(w, "all captured; non-benchmark lines are ignored.\n\n")
		fmt.Fprintf(w, "With -maxregress, the existing -o file is the committed baseline: if\n")
		fmt.Fprintf(w, "any benchmark's B/op or allocs/op grew by more than PCT%%, or if no\n")
		fmt.Fprintf(w, "benchmark reports either unit on both sides (a gate that compared\n")
		fmt.Fprintf(w, "nothing), the baseline is left untouched and benchjson exits non-zero.\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(w, "\nExamples:\n")
		fmt.Fprintf(w, "  go test -bench Sweep -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json\n")
		fmt.Fprintf(w, "  go test -bench Sweep -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json -maxregress 10\n")
	}
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q (input is read from stdin)\n", flag.Arg(0))
		os.Exit(1)
	}
	if *maxRegress > 0 && *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -maxregress needs -o FILE as the baseline")
		os.Exit(1)
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	if *maxRegress > 0 {
		if base, err := loadReport(*out); err == nil {
			regressions, compared := compare(base, rep, *maxRegress)
			if compared == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: -maxregress compared nothing: no benchmark in both %s and stdin reports B/op or allocs/op (run the benchmarks with -benchmem); %s left untouched\n",
					*out, *out)
				os.Exit(1)
			}
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
				}
				fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%%; %s left untouched\n",
					len(regressions), *maxRegress, *out)
				os.Exit(1)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadReport reads a previously written report to serve as the baseline.
func loadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare flags every benchmark present in both reports whose B/op or
// allocs/op grew by more than maxPct percent over the baseline, and
// counts the (benchmark, unit) pairs it could compare at all — zero means
// the gate checked nothing. Benchmarks pair up by bare name, whatever
// GOMAXPROCS either side ran at: B/op and allocs/op do not depend on it.
func compare(base, cur *Report, maxPct float64) (regressions []string, compared int) {
	baseline := make(map[string]map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r.Metrics
	}
	for _, r := range cur.Results {
		old, ok := baseline[r.Name]
		if !ok {
			continue
		}
		for _, unit := range []string{"B/op", "allocs/op"} {
			was, okOld := old[unit]
			now, okNew := r.Metrics[unit]
			if !okOld || !okNew || was <= 0 {
				continue
			}
			compared++
			if growth := (now - was) / was * 100; growth > maxPct {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s %.0f -> %.0f (+%.1f%%)", r.Name, unit, was, now, growth))
			}
		}
	}
	return regressions, compared
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !utf8.ValidString(line) {
			continue // `go test` writes UTF-8; JSON would not keep these bytes
		}
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBench(line)
			if ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep, sc.Err()
}

// parseBench parses one line of the form
//
//	BenchmarkName-8   120   9843215 ns/op   1024 B/op   12 allocs/op   321.5 cells/sec
//
// i.e. name, iteration count, then (value, unit) pairs; a line with a
// value that is not a finite number is skipped. The name's "-8"
// goes to GOMAXPROCS; `go test` writes none at GOMAXPROCS=1, so a
// sub-benchmark called "n-50" run there would read as "n" at 50 — no
// benchmark of this repository ends in a hyphen and digits.
func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
		if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil && procs > 0 {
			r.Name, r.GOMAXPROCS = r.Name[:i], procs
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		// JSON has no NaN or ±Inf: such a value would fail the report's
		// encoding, and a NaN baseline would pass any -maxregress gate.
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
