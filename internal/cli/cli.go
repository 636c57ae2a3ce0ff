// Package cli binds, once, every flag two or more commands share, and
// turns the parsed values into the options the harnesses take. A command
// presets its defaults on the struct for its flag groups, calls Bind,
// declares its own flags beside them, calls Parse, checks its own flags,
// and then asks for options — which validates the shared flags before
// the journal is opened or the signal handler installed, so a rejected
// command line leaves nothing behind.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

func prog() string { return filepath.Base(os.Args[0]) }

// Logf prints one line to standard error under the command's name.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog()+": "+format+"\n", args...)
}

// Main runs a command's body; an error is printed and exits 1.
func Main(run func() error) {
	if err := run(); err != nil {
		Logf("%v", err)
		os.Exit(1)
	}
}

// Parse installs the usage text on the process's flag set, parses the
// command line, and rejects positional arguments (no command takes any).
func Parse(intro string, examples ...string) error {
	fs := flag.CommandLine
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "usage: %s [flags]\n\n%s\n\nFlags:\n", prog(), intro)
		fs.PrintDefaults()
		fmt.Fprintf(w, "\nExamples:\n")
		for _, ex := range examples {
			fmt.Fprintf(w, "  %s\n", ex)
		}
	}
	flag.Parse()
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (%s takes only flags)", fs.Arg(0), prog())
	}
	return nil
}

// List parses a comma-separated flag value, passing every trimmed
// element through resolve so an unknown name is rejected before anything
// runs. An empty value is an empty list (the command's default set).
func List(value string, resolve func(name string) error) ([]string, error) {
	if value == "" {
		return nil, nil
	}
	var names []string
	for _, part := range strings.Split(value, ",") {
		name := strings.TrimSpace(part)
		if err := resolve(name); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// Profile is -cpuprofile and -memprofile (ldrsim for one cell, ldrbench
// and ldrchaos for a whole table).
type Profile struct {
	cpu, mem string
}

func (p *Profile) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file at exit")
}

// Start creates the profile files that were asked for, so that a bad path
// fails before the run rather than after it, and begins the CPU profile.
// The stop function it returns ends it and writes the allocation profile;
// call it once, on the way out.
func (p *Profile) Start() (stop func(), err error) {
	var cpu, mem *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
	}
	if p.mem != "" {
		if mem, err = os.Create(p.mem); err != nil {
			return nil, err
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	finish := func(name string, f *os.File, write func() error) {
		if f == nil {
			return
		}
		if err := errors.Join(write(), f.Close()); err != nil {
			Logf("%s: %v", name, err)
		}
	}
	return func() {
		finish("cpuprofile", cpu, func() error { pprof.StopCPUProfile(); return nil })
		finish("memprofile", mem, func() error {
			// alloc_space/alloc_objects cover the whole run even though the
			// snapshot is taken at exit; GC first so inuse numbers are live.
			runtime.GC()
			return pprof.WriteHeapProfile(mem)
		})
	}, nil
}

// Run is -seed and -workers, which every scenario-running command
// takes. Every group's Bind uses the fields' current values as defaults.
type Run struct {
	Seed    int64
	Workers int
}

func (r *Run) Bind(fs *flag.FlagSet) {
	fs.Int64Var(&r.Seed, "seed", r.Seed, "base random seed")
	fs.IntVar(&r.Workers, "workers", r.Workers,
		"concurrent cells; 0 = GOMAXPROCS, 1 = serial (output is identical either way)")
}

func (r *Run) Validate() error {
	if r.Workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (got %d; 0 means GOMAXPROCS)", r.Workers)
	}
	return nil
}

// Cell is -proto, -nodes, -flows and -pause: the one cell ldrsim and
// ldrtrace run.
type Cell struct {
	Proto string
	Nodes int
	Flows int
	Pause time.Duration
}

// cellProtocols are the names -proto's help lists. Validate asks
// scenario.Factory, so a protocol registered at run time is accepted too.
var cellProtocols = []scenario.ProtocolName{
	scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7, scenario.OLSR, scenario.OLSRJ,
}

func (c *Cell) Bind(fs *flag.FlagSet) {
	names := make([]string, len(cellProtocols))
	for i, p := range cellProtocols {
		names[i] = string(p)
	}
	fs.StringVar(&c.Proto, "proto", c.Proto, "routing protocol: "+strings.Join(names, "|"))
	fs.IntVar(&c.Nodes, "nodes", c.Nodes, "number of nodes (≥ 2)")
	fs.IntVar(&c.Flows, "flows", c.Flows, "concurrent CBR flows (≥ 1)")
	fs.DurationVar(&c.Pause, "pause", c.Pause, "random-waypoint pause time (≥ 0)")
}

func (c *Cell) Validate() error {
	if _, err := scenario.Factory(scenario.ProtocolName(c.Proto), nil); err != nil {
		return err
	}
	if c.Nodes < 2 {
		return fmt.Errorf("-nodes must be at least 2 (got %d)", c.Nodes)
	}
	if c.Flows < 1 {
		return fmt.Errorf("-flows must be at least 1 (got %d)", c.Flows)
	}
	if c.Pause < 0 {
		return fmt.Errorf("-pause must not be negative (got %v)", c.Pause)
	}
	return nil
}

// Config is the paper's 50-node scenario skeleton resized to the cell.
func (c *Cell) Config(seed int64) scenario.Config {
	cfg := scenario.Nodes50(scenario.ProtocolName(c.Proto), c.Flows, c.Pause, seed)
	cfg.Nodes = c.Nodes
	return cfg
}

// Scale adds -trials, -simtime and the scenario axes: one scenario shape
// repeated across seeds (ldrsim, ldrbench, ldrchaos).
type Scale struct {
	Run
	Trials  int
	SimTime time.Duration
	scenario.Axes
}

func (s *Scale) Bind(fs *flag.FlagSet) {
	s.Run.Bind(fs)
	fs.IntVar(&s.Trials, "trials", s.Trials, "trials (seeds seed..seed+trials-1) per configuration, ≥ 1; paper: 10")
	fs.DurationVar(&s.SimTime, "simtime", s.SimTime, "simulated time per run, > 0; paper: 900s")
	s.Axes.Bind(fs)
}

func (s *Scale) Validate() error {
	if s.Trials < 1 {
		return fmt.Errorf("-trials must be at least 1 (got %d)", s.Trials)
	}
	if s.SimTime <= 0 {
		return fmt.Errorf("-simtime must be positive (got %v)", s.SimTime)
	}
	if err := s.Run.Validate(); err != nil {
		return err
	}
	return s.Axes.Validate()
}

// Harness is -protocols and the resilience flags — journaled resumable
// sweeps, per-cell watchdogs, keep-going quarantine (ldrbench and
// ldrchaos).
type Harness struct {
	Protocols []string // set by Open; nil = the default four

	protocols   string
	journalDir  string
	resume      bool
	cellTimeout time.Duration
	keepGoing   bool
	journal     *resilience.Journal
}

func (h *Harness) Bind(fs *flag.FlagSet) {
	fs.StringVar(&h.protocols, "protocols", "", "comma-separated protocol subset (default: ldr,aodv,dsr,olsr)")
	fs.StringVar(&h.journalDir, "journal", "",
		"journal directory: completed cells are durably recorded there, so a killed sweep resumes with -resume instead of starting over")
	fs.BoolVar(&h.resume, "resume", false,
		"resume the sweep recorded in -journal, loading completed cells instead of re-running them")
	fs.DurationVar(&h.cellTimeout, "cell-timeout", 0,
		"per-cell watchdog base deadline, scaled by cell size (0 = no watchdog); a hung cell is interrupted and reported instead of wedging the sweep")
	fs.BoolVar(&h.keepGoing, "keep-going", false,
		"quarantine failing cells and finish the sweep; failures land in the journal's manifest.json with auto-emitted reproducers")
}

// Open resolves -protocols and validates the resilience flags, and only
// then opens the journal and installs the signal handler. A journal that
// already holds records requires an explicit -resume, so stale records
// from an earlier sweep are never silently mistaken for this one's.
func (h *Harness) Open() (sweep.ExecOptions, error) {
	var err error
	h.Protocols, err = List(h.protocols, func(name string) error {
		_, err := scenario.Factory(scenario.ProtocolName(name), nil)
		return err
	})
	if err != nil {
		return sweep.ExecOptions{}, err
	}
	if h.cellTimeout < 0 {
		return sweep.ExecOptions{}, fmt.Errorf("-cell-timeout must not be negative (got %v)", h.cellTimeout)
	}
	if h.resume && h.journalDir == "" {
		return sweep.ExecOptions{}, errors.New("-resume requires -journal DIR (there is nothing to resume from)")
	}
	exec := sweep.ExecOptions{CellTimeout: h.cellTimeout, KeepGoing: h.keepGoing}
	if h.journalDir != "" {
		if h.journal, err = resilience.Open(h.journalDir); err != nil {
			return sweep.ExecOptions{}, err
		}
		if n := h.journal.Len(); !h.resume && n > 0 {
			return sweep.ExecOptions{}, fmt.Errorf("journal %s already holds %d completed cell(s); pass -resume to continue that sweep, or point -journal at an empty directory",
				h.journal.Dir(), n)
		}
		exec.Journal = h.journal
		exec.OnFailure = conformance.QuarantineEmitter(h.journal.Dir(), Logf)
	}
	resilience.HandleSignals(h.journal, os.Stderr)
	return exec, nil
}

// Finish is the exit path: on a degraded keep-going sweep it summarizes
// the quarantined cells and leaves the failure manifest next to the
// journal records; any other error (or nil) passes through.
func (h *Harness) Finish(scope string, cells int, err error) error {
	return sweep.ReportFailures(os.Stderr, prog(), h.journal, scope, cells, err)
}

// Experiment is Scale plus Harness, the whole shared surface of ldrbench
// and ldrchaos, as experiments.Options.
type Experiment struct {
	Scale
	Harness
	progress sweep.Progress
}

func (e *Experiment) Bind(fs *flag.FlagSet) {
	e.Scale.Bind(fs)
	e.Harness.Bind(fs)
}

// Options validates the shared flags, opens the harness, and returns the
// experiment options they describe, rendering to standard output.
func (e *Experiment) Options() (experiments.Options, error) {
	if err := e.Scale.Validate(); err != nil {
		return experiments.Options{}, err
	}
	exec, err := e.Open()
	if err != nil {
		return experiments.Options{}, err
	}
	opts := experiments.Options{
		Trials:   e.Trials,
		SimTime:  e.SimTime,
		Out:      os.Stdout,
		BaseSeed: e.Seed,
		Workers:  e.Workers,
		Axes:     e.Axes,
		Progress: &e.progress,
		Exec:     exec,
	}
	for _, p := range e.Protocols {
		opts.Protocols = append(opts.Protocols, scenario.ProtocolName(p))
	}
	return opts, nil
}

// Finish is Harness.Finish with the cell count of the last sweep run.
func (e *Experiment) Finish(scope string, err error) error {
	return e.Harness.Finish(scope, e.progress.Total(), err)
}
