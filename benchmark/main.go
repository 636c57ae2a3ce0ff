// Command benchmark is the repository's benchmark: five fixed, seeded
// workloads, eight end-to-end metrics and a per-layer ledger measured from
// outside the layers. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload <name|all> -seed S [-trace 1] [-out FILE]
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are declared.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (go test runs in the package directory) and returns it with the
// directory it was found in.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", errors.New("benchmark: BENCHMARK.json not found; run from the repository root")
}

// outcome is one workload's result: what a result file holds per workload.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Scale     string   `json:"scale"`
	Traced    bool     `json:"traced"`
	OpsTotal  int      `json:"ops_total"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`

	// How the untraced pass's clock readings became reference seconds
	// (calib.go): wall_s = RawWallS × refNominalMs / RefMsMean.
	RawWallS   float64 `json:"raw_wall_s"`
	RefMsMean  float64 `json:"ref_ms_mean"`
	RefSamples int     `json:"ref_samples"`

	Metrics metricSet `json:"metrics"`

	shares *shares
}

// resultFile is what -out writes: one host stamp, one outcome per workload.
type resultFile struct {
	Host      hostStamp           `json:"host"`
	Workloads map[string]*outcome `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	scale    string
	trace    bool
	traceOut string
}

// execute runs one workload: the untraced pass (with the set-up measurement
// around it) always; with opt.trace also the traced pass and the drivers.
// End-to-end metrics come from the untraced pass only.
func execute(spec *benchSpec, root string, opt options) (*outcome, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q", opt.workload)
	}
	sz, ok := scales[opt.scale]
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown scale %q (have full, tiny)", opt.scale)
	}
	outDir, err := outDirFor(root)
	if err != nil {
		return nil, err
	}

	un, err := measure(w, sz, opt.seed, outDir)
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: w.name, Seed: opt.seed, Scale: opt.scale, Traced: opt.trace,
		RawWallS: un.rawWallS(), RefMsMean: mean(un.refMs()), RefSamples: len(un.refMs()),
		OpsTotal: len(un.slices), Failures: un.failures, Digest: un.digest.hex(), Metrics: metricSet{}}
	endToEnd(o.Metrics, w, un, peakRSSMB())
	counters(o.Metrics, w, un)

	if opt.trace {
		tr := newTracer()
		tp, err := runPass(w, sz, opt.seed, outDir, tr)
		if err != nil {
			return nil, err
		}
		if tp.digest != un.digest {
			o.Failures = append(o.Failures, fmt.Sprintf("traced pass digest %s differs from untraced %s: tracing changed the run",
				tp.digest.hex(), un.digest.hex()))
		}
		u, err := runDrivers(w, sz, un, tp, outDir, tr)
		if err != nil {
			return nil, err
		}
		o.shares = traced(o.Metrics, w, un, tp, u)
		path := opt.traceOut
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, opt.seed))
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	o.OpsFailed = min(len(o.Failures), o.OpsTotal)
	return o, closeSet(o.Metrics, spec, w, sz, opt.trace)
}

// print writes every metric by name with unit, direction and sample count.
func (o *outcome) print(out io.Writer, spec *benchSpec) {
	fmt.Fprintf(out, "workload %s  seed %d  scale %s  traced %v  ops_total %d  ops_failed %d\n",
		o.Workload, o.Seed, o.Scale, o.Traced, o.OpsTotal, o.OpsFailed)
	for _, f := range o.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	fmt.Fprintf(out, "  scenario.digest %s\n  untraced pass: raw wall %.3f s, %d reference samples of mean %.3f ms (nominal %.1f)\n",
		o.Digest, o.RawWallS, o.RefSamples, o.RefMsMean, refNominalMs)
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range list {
			v, ok := o.Metrics[ms.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-36s %16s %-8s %-6s %s", ms.Name, strconv.FormatFloat(v.Value, 'g', 8, 64), v.Unit, v.Better, v.Class)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
			}
			fmt.Fprintln(out, line)
		}
	}
	if o.shares != nil {
		fmt.Fprintln(out, "  share of the untraced busy time (handler shares weighted by protocol):")
		for i, name := range o.shares.names {
			fmt.Fprintf(out, "    %-34s %8.4f\n", name, o.shares.values[i])
		}
		rest := o.Metrics["scenario.unattributed_share"].Value
		fmt.Fprintf(out, "    %-34s %8.4f\n    %-34s %8.4f\n", "scenario.unattributed_share", rest, "sum", o.shares.sum()+rest)
	}
}

// driverLine is the last line of standard output: the result in the form
// the benchmark contract fixes.
func (o *outcome) driverLine(spec *benchSpec) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := spec.EndToEnd
	if o.Traced {
		list = spec.PerLayer
	}
	ms := map[string]mv{}
	for _, s := range list {
		v, ok := o.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("benchmark: %s has no value for %s", o.Workload, s.Name)
		}
		ms[s.Name] = mv{v.Value, v.Unit}
	}
	blob, err := json.Marshal(map[string]any{
		"correct": o.OpsFailed == 0, "attempted": o.OpsTotal, "failed": o.OpsFailed, "metrics": ms,
	})
	return string(blob), err
}

func writeResult(path string, host hostStamp, outs ...*outcome) error {
	rf := resultFile{Host: host, Workloads: map[string]*outcome{}}
	for _, o := range outs {
		rf.Workloads[o.Workload] = o
	}
	blob, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runAll re-executes this binary once per workload, so each workload has
// its own process and peak_rss_mb is its own, and merges the results.
func runAll(spec *benchSpec, root string, opt options, outPath string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	outDir, err := outDirFor(root)
	if err != nil {
		return err
	}
	var outs []*outcome
	var host hostStamp
	failed := 0
	for _, w := range workloads {
		part := filepath.Join(outDir, fmt.Sprintf("part-%d-%s.json", os.Getpid(), w.name))
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-scale", opt.scale, "-trace", strconv.FormatBool(opt.trace), "-out", part)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		rf, err := readResult(part)
		os.Remove(part)
		if err != nil {
			return err
		}
		host = rf.Host
		outs = append(outs, rf.Workloads[w.name])
		failed += rf.Workloads[w.name].OpsFailed
	}
	if err := writeResult(outPath, host, outs...); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "all workloads: ops_failed %d; results in %s\n", failed, outPath)
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all to run each in its own process")
	fs.Int64Var(&opt.seed, "seed", 1, "seeds the protocols' jitter streams; the scenarios are constants")
	fs.StringVar(&opt.scale, "scale", "full", "full, or tiny for the smoke test")
	trace := fs.String("trace", "0", "1 adds the traced pass and the drivers and reports the per-layer metrics")
	fs.StringVar(&opt.traceOut, "trace-out", "", "Chrome trace-event file of the traced pass (default benchmark/out/<workload>-seed<S>.trace.json)")
	outPath := fs.String("out", "", "result file (default benchmark/out/<workload>-seed<S>.json)")
	fs.Int("seconds", 0, "accepted for the driver; the inputs are fixed, so a run is as long as its workload")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec, root, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("benchmark: -compare takes two result files"))
		}
		ok, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if opt.trace, err = strconv.ParseBool(*trace); err != nil {
		return fail(fmt.Errorf("benchmark: -trace %q: want 0 or 1", *trace))
	}
	if *outPath == "" {
		outDir, err := outDirFor(root)
		if err != nil {
			return fail(err)
		}
		*outPath = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	}
	if opt.workload == "all" {
		if err := runAll(spec, root, opt, *outPath, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	t0 := time.Now()
	o, err := execute(spec, root, opt)
	if err != nil {
		return fail(err)
	}
	host := stampHost()
	o.print(stdout, spec)
	fmt.Fprintf(stdout, "host %+v  process %.1f s\n", host, time.Since(t0).Seconds())
	if err := writeResult(*outPath, host, o); err != nil {
		return fail(err)
	}
	line, err := o.driverLine(spec)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
