package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/modelcheck"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// sizes are the constants that fix each workload's input. README.md
// records how "full" was chosen; "tiny" exists for the tier-1 smoke test.
type sizes struct {
	paper, congested, dense, chaos time.Duration // simulated time of one cell
	depth                          int           // modelcheck3 MaxDepth
}

var scales = map[string]sizes{
	"full": {paper: 650 * time.Second, congested: 240 * time.Second, dense: 330 * time.Second, chaos: 30 * time.Second, depth: 14},
	"tiny": {paper: 6 * time.Second, congested: 3 * time.Second, dense: 3 * time.Second, chaos: 2 * time.Second, depth: 6},
}

type kind int

const (
	serial   kind = iota // cells run one after another
	swept                // cells run through sweep.RunCells with a journal
	explored             // modelcheck.Check per graph
)

// workload is one fixed input. The scenario of every cell — topology,
// mobility, flows, fault schedule, MAC backoff — is fixed by scenario seed
// 1+i for cell i; -seed reseeds only the protocols' jitter streams (and is
// modelcheck's Scenario.Seed, which only jitter draws consume). So another
// seed is another run of the same experiment, not another experiment, and
// the spread across seeds stays far below the effect sizes the bounds gate.
type workload struct {
	name  string
	kind  kind
	cells func(sz sizes) []scenario.Config
}

func cellsOf(protos []scenario.ProtocolName, mk func(p scenario.ProtocolName, seed int64) scenario.Config) []scenario.Config {
	var out []scenario.Config
	for i, p := range protos {
		out = append(out, mk(p, int64(1+i)))
	}
	return out
}

var workloads = []workload{
	{"paper50", serial, func(sz sizes) []scenario.Config {
		return cellsOf(scenario.AllProtocols, func(p scenario.ProtocolName, seed int64) scenario.Config {
			cfg := scenario.Nodes50(p, 10, 0, seed)
			cfg.SimTime = sz.paper
			return cfg
		})
	}},
	{"congested50", serial, func(sz sizes) []scenario.Config {
		return cellsOf([]scenario.ProtocolName{scenario.LDR, scenario.AODV}, func(p scenario.ProtocolName, seed int64) scenario.Config {
			cfg := scenario.Nodes50(p, 30, sz.congested, seed) // pause = run length: static
			cfg.SimTime = sz.congested
			return cfg
		})
	}},
	{"dense100", serial, func(sz sizes) []scenario.Config {
		return cellsOf([]scenario.ProtocolName{scenario.LDR, scenario.OLSR}, func(p scenario.ProtocolName, seed int64) scenario.Config {
			cfg := scenario.Nodes100(p, 10, 0, seed)
			cfg.SimTime = sz.dense
			return cfg
		})
	}},
	{"chaos_sweep", swept, func(sz sizes) []scenario.Config {
		var out []scenario.Config
		for _, profile := range fault.ProfileNames() {
			plan, err := fault.Profile(profile, 50, sz.chaos)
			if err != nil {
				panic(err) // ProfileNames and Profile disagree: a bug
			}
			for _, p := range scenario.AllProtocols {
				for _, pause := range []time.Duration{0, sz.chaos} {
					cfg := scenario.Nodes50(p, 10, pause, int64(1+len(out)))
					cfg.SimTime = sz.chaos
					cfg.FaultPlan = &plan
					cfg.AuditCadence = 100 * time.Millisecond
					out = append(out, cfg)
				}
			}
		}
		return out
	}},
	{"modelcheck3", explored, nil},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jitterFor is cell i's share of -seed.
func jitterFor(seed int64, i int) *rng.Source { return rng.New(seed).Split("cell" + strconv.Itoa(i)) }

// memDelta accumulates allocator totals over timed regions.
type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
}

// region is one timed region: runtime.GC before it, allocator totals read
// on both sides.
type region struct {
	ms runtime.MemStats
	t0 time.Time
}

func beginRegion() *region {
	r := &region{}
	runtime.GC()
	runtime.ReadMemStats(&r.ms)
	r.t0 = time.Now()
	return r
}

func (r *region) end(into *memDelta) time.Duration {
	wall := time.Since(r.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	into.allocBytes += ms.TotalAlloc - r.ms.TotalAlloc
	into.mallocs += ms.Mallocs - r.ms.Mallocs
	into.pauseNs += ms.PauseTotalNs - r.ms.PauseTotalNs
	into.gcCycles += ms.NumGC - r.ms.NumGC
	return wall
}

// pass is one execution of a workload, untraced or traced.
type pass struct {
	// slices[i][j] is the host time, in seconds, of operation i's j-th
	// slice: a simulated second of a cell (for a swept cell, slice 0 is its
	// construction), or 500 expanded states of an exploration. One seed
	// gives every pass the same slices doing the same work.
	slices [][]float64
	spanS  float64 // swept: wall of the whole RunCells call, reference samples taken out
	mem    memDelta
	clocks []*refClock // one per goroutine that runs operations

	failures []string
	digest   digester

	cfgs []scenario.Config // simulation workloads
	recs []cellRecord
	mc   []*modelcheck.Result // modelcheck3

	// chaos_sweep only.
	workers              int
	retried, sweepFailed int
	journalRecs          int
	journalBytes         int64
	journalPayload       []byte // one record's payload, for the journal driver

	// Traced pass only.
	traces      []*cellTrace
	starts      []time.Time
	mcHandlers  *handlerStats
	frontierMax int
	keep        *routing.Network // cell 0's end-of-run network, for the drivers
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// refMs is every reference sample of this pass, in milliseconds.
func (p *pass) refMs() []float64 {
	var out []float64
	for _, c := range p.clocks {
		out = append(out, c.samples...)
	}
	return out
}

// cal converts this pass's wall times into reference seconds (calib.go).
func (p *pass) cal() float64 { return ratio(refNominalMs, mean(p.refMs())) }

// rawOpS is every operation's wall as the clock read it.
func (p *pass) rawOpS() []float64 {
	out := make([]float64, len(p.slices))
	for i, s := range p.slices {
		out[i] = sum(s)
	}
	return out
}

// rawWallS is the timed region's wall as the clock read it.
func (p *pass) rawWallS() float64 {
	if p.spanS > 0 {
		return p.spanS
	}
	return sum(p.rawOpS())
}

// opS and wallS are the same in reference seconds: what the time metrics
// report.
func (p *pass) opS() []float64 {
	out, cal := p.rawOpS(), p.cal()
	for i := range out {
		out[i] *= cal
	}
	return out
}

func (p *pass) wallS() float64 { return p.rawWallS() * p.cal() }

func (p *pass) busyS() float64 { return sum(p.opS()) }

func (p *pass) fail(op int, why string) {
	p.failures = append(p.failures, fmt.Sprintf("op %d: %s", op, why))
}

// measured is the untraced pass with the set-up measurement around it.
type measured struct {
	*pass
	setupS float64
}

func measure(w workload, sz sizes, seed int64, outDir string) (*measured, error) {
	setup, err := newSetupSampler(w, sz, seed)
	if err != nil {
		return nil, err
	}
	if err := setup.burst(); err != nil {
		return nil, err
	}
	p, err := runPass(w, sz, seed, outDir, nil)
	if err != nil {
		return nil, err
	}
	if err := setup.burst(); err != nil {
		return nil, err
	}
	return &measured{pass: p, setupS: setup.setupS()}, nil
}

// runPass executes the workload once. outDir holds the sweep's journal.
func runPass(w workload, sz sizes, seed int64, outDir string, tr *tracer) (*pass, error) {
	p := &pass{workers: 1}
	if w.kind == swept {
		p.workers = min(2, runtime.NumCPU())
	}
	for range p.workers {
		c := newRefClock()
		c.tick(true)
		p.clocks = append(p.clocks, c)
	}
	var err error
	t0 := time.Now()
	switch w.kind {
	case serial:
		err = p.runSerial(w.cells(sz), seed, tr)
	case swept:
		err = p.runSwept(w.cells(sz), seed, outDir, tr)
	case explored:
		err = p.runExplored(sz, seed, tr)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range p.clocks {
		c.tick(true)
	}
	if tr != nil {
		tr.span("workload", w.name, "", 0, t0, time.Since(t0),
			map[string]any{"raw_wall_s": p.rawWallS(), "ref_ms_mean": mean(p.refMs()), "ops": len(p.slices)})
		for i, ct := range p.traces {
			if ct == nil || ct.h == nil {
				continue // a cell that failed before it ran
			}
			tr.cellSpans(w.name, cellName(p.cfgs[i], i), p.starts[i], p.slices[i], ct)
		}
	}
	return p, nil
}

func cellName(cfg scenario.Config, i int) string {
	name := fmt.Sprintf("cell%d:%s", i, cfg.Protocol)
	if cfg.FaultPlan != nil {
		name += ":" + cfg.FaultPlan.Name
	}
	return name
}

func (p *pass) runSerial(cfgs []scenario.Config, seed int64, tr *tracer) error {
	p.cfgs = cfgs
	for i, cfg := range cfgs {
		var ct *cellTrace
		if tr != nil {
			ct = &cellTrace{}
		}
		lc, err := buildCell(cfg, jitterFor(seed, i), ct)
		if err != nil {
			return err
		}
		reg := beginRegion()
		start := time.Now()
		rec, slices := lc.run(p.clocks[0])
		reg.end(&p.mem)
		p.record(i, rec, slices)
		if tr != nil {
			p.traces, p.starts = append(p.traces, ct), append(p.starts, start)
			if i == 0 {
				p.keep = lc.nw
			}
		}
	}
	return p.digestCells()
}

func (p *pass) record(i int, rec cellRecord, slices []float64) {
	p.recs = append(p.recs, rec)
	p.slices = append(p.slices, slices)
	if rec.Collector == nil {
		return // a failed sweep cell; RunCells reported why
	}
	if why := rec.failure(p.cfgs[i]); why != "" {
		p.fail(i, why)
	}
}

func (p *pass) digestCells() error {
	for _, rec := range p.recs {
		if rec.Collector == nil {
			continue
		}
		if err := p.digest.addCell(rec); err != nil {
			return err
		}
	}
	return nil
}

// runSwept runs the cells as a closed loop of workers, each claiming the
// next cell, through sweep.RunCells with a fresh journal; then replays the
// sweep against the journal just written and requires every cell to load
// with the result the first pass computed.
func (p *pass) runSwept(cfgs []scenario.Config, seed int64, outDir string, tr *tracer) error {
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal, err := resilience.Open(dir)
	if err != nil {
		return err
	}

	n := len(cfgs)
	p.cfgs = cfgs
	slices := make([][]float64, n)
	if tr != nil {
		p.traces, p.starts = make([]*cellTrace, n), make([]time.Time, n)
	}
	prog := &sweep.Progress{}
	opt := sweep.Options{Workers: p.workers, Progress: prog,
		Exec: sweep.ExecOptions{Journal: journal, Scope: "benchmark", KeepGoing: true}}

	reg := beginRegion()
	recs, err := sweep.RunCells(cfgs, opt, func(i int, ctl *scenario.Control) (cellRecord, error) {
		worker := workerOf(prog, i)
		clock := p.clocks[worker]
		clock.tick(false)
		start := time.Now()
		var ct *cellTrace
		if tr != nil {
			ct = &cellTrace{worker: worker}
			p.traces[i], p.starts[i] = ct, start
		}
		lc, err := buildCell(cfgs[i], jitterFor(seed, i), ct)
		if err != nil {
			return cellRecord{}, err
		}
		built := time.Since(start).Seconds()
		rec, run := lc.run(clock, ctl)
		slices[i] = append([]float64{built}, run...)
		if tr != nil && i == 0 {
			p.keep = lc.nw
		}
		return rec, nil
	})
	// The workers took their reference samples inside the call; each
	// worker's share of them is not the sweep's time.
	var inRef time.Duration
	for _, c := range p.clocks {
		inRef += c.spent
	}
	span := reg.end(&p.mem)
	p.spanS = (span - inRef/time.Duration(p.workers)).Seconds()
	var failed sweep.Failures
	if err != nil && !errors.As(err, &failed) {
		return err
	}
	for _, f := range failed {
		p.fail(f.Index, f.Error())
	}
	for i, rec := range recs {
		p.record(i, rec, slices[i])
	}
	p.retried, p.sweepFailed = prog.Retried(), prog.Failed()
	p.journalRecs = journal.Len()
	if p.journalBytes, err = dirBytes(dir); err != nil {
		return err
	}
	if len(recs) > 0 && recs[0].Collector != nil {
		p.journalPayload, _ = json.Marshal(recs[0])
	}

	if why, err := replayJournal(dir, cfgs, opt, recs); err != nil {
		return err
	} else if why != "" {
		p.failures = append(p.failures, why)
	}
	return p.digestCells()
}

// workerOf finds which worker claimed cell i.
func workerOf(prog *sweep.Progress, i int) int {
	for w := 0; w < prog.Workers(); w++ {
		if c, ok := prog.WorkerCell(w); ok && c == i {
			return w
		}
	}
	return 0
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			sum += info.Size()
		}
	}
	return sum, nil
}

// replayJournal reopens the journal from disk and runs the sweep again; no
// cell may execute, and every loaded result must equal the first pass's.
func replayJournal(dir string, cfgs []scenario.Config, opt sweep.Options, want []cellRecord) (string, error) {
	journal, err := resilience.Open(dir)
	if err != nil {
		return "", err
	}
	opt.Exec.Journal = journal
	opt.Progress = &sweep.Progress{}
	got, err := sweep.RunCells(cfgs, opt, func(i int, _ *scenario.Control) (cellRecord, error) {
		return cellRecord{}, fmt.Errorf("cell %d is not in the journal", i)
	})
	if err != nil {
		return "journal replay: " + err.Error(), nil
	}
	if opt.Progress.Loaded() != len(cfgs) {
		return fmt.Sprintf("journal replay loaded %d of %d cells", opt.Progress.Loaded(), len(cfgs)), nil
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("journal replay: cell %d differs from the first pass", i), nil
		}
	}
	return "", nil
}

// timedLDRName is the registered protocol name of the decorated LDR the
// traced exploration runs; the model checker builds its nodes through
// scenario.Factory, so registration is the one door in from outside.
const timedLDRName = "ldr-timed"

func (p *pass) runExplored(sz sizes, seed int64, tr *tracer) error {
	graphs, err := modelcheck.ConnectedGraphs(3)
	if err != nil {
		return err
	}
	proto := string(scenario.LDR)
	if tr != nil {
		proto = timedLDRName
		p.mcHandlers = &handlerStats{}
		scenario.RegisterProtocol(timedLDRName, func(n *routing.Node) routing.Protocol {
			t, err := wrap(core.New(n, core.DefaultConfig()), p.mcHandlers)
			if err != nil {
				panic(err) // wrap knows *core.LDR: a bug
			}
			return t
		})
	}
	for i, g := range graphs {
		// The checker reports progress every 500 expanded states and once at
		// the end; the reports' elapsed times cut the exploration into slices.
		// A reference sample taken inside a report is taken out of the next
		// slice.
		var slices []float64
		var last, inRef time.Duration
		opts := modelcheck.Options{MaxDepth: sz.depth, MaxResets: 1, MaxDrops: 1, ProgressEvery: 500,
			Progress: func(pr modelcheck.Progress) {
				slices = append(slices, (pr.Elapsed - last - inRef).Seconds())
				last = pr.Elapsed
				inRef = p.clocks[0].tick(false)
				if tr != nil {
					p.frontierMax = max(p.frontierMax, pr.Frontier)
					tr.counter("modelcheck", "exploration:"+g.Name, 0, time.Now(),
						map[string]any{"states": pr.States, "frontier": pr.Frontier, "depth": pr.Depth})
				}
			}}
		reg := beginRegion()
		start := time.Now()
		res, err := modelcheck.Check(&modelcheck.Scenario{Graph: g, Protocol: proto, Seed: seed}, opts)
		wall := reg.end(&p.mem)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.span("exploration", g.Name, "modelcheck3", 0, start, wall,
				map[string]any{"states": res.States, "transitions": res.Transitions, "depth": res.Depth})
		}
		p.mc = append(p.mc, res)
		p.slices = append(p.slices, slices)
		switch {
		case res.Violation != nil:
			p.fail(i, "ldr violated its invariant:\n"+res.Violation.String())
		case res.Truncated:
			p.fail(i, "exploration truncated at the state cap")
		}
		p.digest.addInts(res.States, res.Transitions, res.Depth)
	}
	return nil
}

// setupSampler measures setup_s: construction cost, which the timed
// regions exclude. One round builds every cell once (for modelcheck3: one
// depth-1 Check per graph — the initial world and its first expansion), with
// a collection after it so the discarded networks do not pile up into the
// process's peak. A 50-node network builds in tens of microseconds, so
// rounds repeat: a burst of up to 100 rounds or 70 ms of building before
// the untraced pass and another after it. The result is each cell's fastest
// build, summed over the cells: over 300 rounds of one 100-node build the
// median moved between 69 and 99 µs from burst to burst, the minimum
// between 59 and 61.
type setupSampler struct {
	builds []func() error
	best   []float64 // each cell's fastest build so far, seconds
}

func newSetupSampler(w workload, sz sizes, seed int64) (*setupSampler, error) {
	s := &setupSampler{}
	if w.kind == explored {
		graphs, err := modelcheck.ConnectedGraphs(3)
		if err != nil {
			return nil, err
		}
		for _, g := range graphs {
			s.builds = append(s.builds, func() error {
				_, err := modelcheck.Check(&modelcheck.Scenario{Graph: g, Protocol: string(scenario.LDR), Seed: seed},
					modelcheck.Options{MaxDepth: 1, MaxResets: 1, MaxDrops: 1})
				return err
			})
		}
	} else {
		for _, cfg := range w.cells(sz) {
			s.builds = append(s.builds, func() error {
				_, _, _, err := scenario.BuildInstrumented(cfg)
				return err
			})
		}
	}
	s.best = make([]float64, len(s.builds))
	for i := range s.best {
		s.best[i] = math.Inf(1)
	}
	return s, nil
}

func (s *setupSampler) burst() error {
	var total time.Duration
	for round := 0; round < 3 || (round < 100 && total < 70*time.Millisecond); round++ {
		runtime.GC()
		for i, build := range s.builds {
			t0 := time.Now()
			if err := build(); err != nil {
				return err
			}
			d := time.Since(t0)
			total += d
			s.best[i] = min(s.best[i], d.Seconds())
		}
	}
	return nil
}

func (s *setupSampler) setupS() float64 { return sum(s.best) }

// outDirFor creates the directory results, traces and the sweep's journal
// go to: <dir of BENCHMARK.json>/benchmark/out.
func outDirFor(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func profileOf(cfg scenario.Config) string {
	if cfg.FaultPlan == nil {
		return ""
	}
	return cfg.FaultPlan.Name
}
