// Package cli binds, once, the flags ldrsim and ldrbench share — Scale
// (-seed, -workers, -trials, -simtime and the scenario axes) and Profile
// (-cpuprofile, -memprofile) — and ldrbench's experiment surface,
// Experiment, and turns the parsed values into the options the harnesses
// take. A command presets its defaults on the struct for its flag
// groups, calls Bind, declares its own flags beside them, calls Parse,
// checks its own flags, and then asks for options — which validates the
// shared flags before the journal is opened or the signal handler
// installed, so a rejected command line leaves nothing behind.
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
// for a whole table).
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

// Scale is -seed, -workers, -trials, -simtime and the scenario axes:
// one scenario shape repeated across seeds (ldrsim, ldrbench). Bind
// uses the fields' current values as defaults.
type Scale struct {
	Seed    int64
	Workers int
	Trials  int
	SimTime time.Duration
	scenario.Axes
}

func (s *Scale) Bind(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "base random seed")
	fs.IntVar(&s.Workers, "workers", s.Workers,
		"concurrent cells; 0 = GOMAXPROCS, 1 = serial (output is identical either way)")
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
	if s.Workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (got %d; 0 means GOMAXPROCS)", s.Workers)
	}
	return s.Axes.Validate()
}

// Experiment is Scale plus -protocols and the resilience flags —
// journaled resumable sweeps, per-cell watchdogs, keep-going quarantine:
// ldrbench's surface, as experiments.Options.
type Experiment struct {
	Scale
	Protocols []string // set by Options; nil = the default four

	protocols   string
	journalDir  string
	resume      bool
	cellTimeout time.Duration
	keepGoing   bool
	journal     *resilience.Journal
	progress    sweep.Progress
}

func (e *Experiment) Bind(fs *flag.FlagSet) {
	e.Scale.Bind(fs)
	fs.StringVar(&e.protocols, "protocols", "", "comma-separated protocol subset (default: ldr,aodv,dsr,olsr)")
	fs.StringVar(&e.journalDir, "journal", "",
		"journal directory: completed cells are durably recorded there, so a killed sweep resumes with -resume instead of starting over")
	fs.BoolVar(&e.resume, "resume", false,
		"resume the sweep recorded in -journal, loading completed cells instead of re-running them")
	fs.DurationVar(&e.cellTimeout, "cell-timeout", 0,
		"per-cell watchdog base deadline, scaled by cell size (0 = no watchdog); a hung cell is interrupted and reported instead of wedging the sweep")
	fs.BoolVar(&e.keepGoing, "keep-going", false,
		"quarantine failing cells and finish the sweep; failures land in the journal's manifest.json with auto-emitted reproducers")
}

// open resolves -protocols and validates the resilience flags, and only
// then opens the journal and installs the signal handler. A journal that
// already holds records requires an explicit -resume, so stale records
// from an earlier sweep are never silently mistaken for this one's.
func (e *Experiment) open() (sweep.ExecOptions, error) {
	var err error
	e.Protocols, err = List(e.protocols, func(name string) error {
		_, err := scenario.Factory(scenario.ProtocolName(name), nil)
		return err
	})
	if err != nil {
		return sweep.ExecOptions{}, err
	}
	if e.cellTimeout < 0 {
		return sweep.ExecOptions{}, fmt.Errorf("-cell-timeout must not be negative (got %v)", e.cellTimeout)
	}
	if e.resume && e.journalDir == "" {
		return sweep.ExecOptions{}, errors.New("-resume requires -journal DIR (there is nothing to resume from)")
	}
	exec := sweep.ExecOptions{CellTimeout: e.cellTimeout, KeepGoing: e.keepGoing}
	if e.journalDir != "" {
		if e.journal, err = resilience.Open(e.journalDir); err != nil {
			return sweep.ExecOptions{}, err
		}
		if n := e.journal.Len(); !e.resume && n > 0 {
			return sweep.ExecOptions{}, fmt.Errorf("journal %s already holds %d completed cell(s); pass -resume to continue that sweep, or point -journal at an empty directory",
				e.journal.Dir(), n)
		}
		exec.Journal = e.journal
		exec.OnFailure = conformance.QuarantineEmitter(e.journal.Dir(), Logf)
	}
	resilience.HandleSignals(e.journal, os.Stderr)
	return exec, nil
}

// Options validates the shared flags, opens the journal, and returns the
// experiment options they describe, rendering to standard output.
func (e *Experiment) Options() (experiments.Options, error) {
	if err := e.Scale.Validate(); err != nil {
		return experiments.Options{}, err
	}
	exec, err := e.open()
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

// Finish is the exit path: on a degraded keep-going sweep it summarizes
// the quarantined cells of the last sweep run and leaves the failure
// manifest next to the journal records; any other error (or nil) passes
// through.
func (e *Experiment) Finish(scope string, err error) error {
	return sweep.ReportFailures(os.Stderr, prog(), e.journal, scope, e.progress.Total(), err)
}
