// Package experiments regenerates every table and figure in the LDR
// paper's evaluation (§4). Each experiment runs the corresponding
// scenario sweep, aggregates trials into mean ± 95% CI, and renders the
// same rows/series the paper reports.
//
// Scale knobs: Options.SimTime and Options.Trials default to a reduced
// configuration that preserves the paper's comparative shape while
// completing in minutes on a laptop; passing 900 s and 10 trials
// reproduces the paper's full setup.
//
// Every statistical experiment is a literal over one table runner
// (table.go): it enumerates sections of rows of cells, built by the one
// cell constructor Options.Cell, and says how a row prints. The runner
// fans the cells out across Options.Workers goroutines via
// internal/sweep and renders serially in enumeration order — so the
// output is byte-identical whatever the worker count. Registry names the
// experiments cmd/ldrbench dispatches on. The bounded model check is not
// an experiment: cmd/ldrcheck is its one front end.
package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// Options control experiment scale and output.
type Options struct {
	Trials    int           // random seeds per configuration (paper: 10)
	SimTime   time.Duration // simulated seconds per run (paper: 900 s)
	Out       io.Writer     // rendered tables/series
	BaseSeed  int64         // first seed; trials use BaseSeed..BaseSeed+Trials-1
	Protocols []scenario.ProtocolName

	// Workers is the number of scenario cells simulated concurrently.
	// Zero selects GOMAXPROCS. Output is byte-identical at every
	// setting.
	Workers int

	// Profiles selects the profiles an experiment that takes them
	// sweeps, resolved against its own names: fault.ProfileNames for
	// Chaos, adversary.ProfileNames for Adversary (nil = all of them).
	Profiles []string

	// Axes apply the scenario-diversity axes to every cell of the
	// experiment being run (the zero value is the paper's waypoint + CBR
	// + uniform-disk + uniform-placement + constant-timeout setup), so
	// every table composes with the newer models. The Mobility
	// experiment sweeps models itself and overrides Axes.Mobility; the
	// Radio experiment likewise sweeps radio and density profiles.
	scenario.Axes

	// Progress, when non-nil, receives live cell counters for the sweep
	// currently running (see sweep.Progress).
	Progress *sweep.Progress

	// Exec carries the sweep resilience options — journal, per-cell
	// watchdog, keep-going quarantine, bounded retry — through to every
	// experiment's sweep (see sweep.ExecOptions). The journal scope is
	// per payload type ("metrics", "chaos", "adversary"), set by the
	// experiment; Exec.Scope is ignored. Under Exec.KeepGoing an
	// experiment with quarantined cells still renders its tables —
	// failed cells contribute zero-valued samples — and then returns the
	// sweep.Failures error so callers can write the manifest.
	Exec sweep.ExecOptions
}

// Defaults fills unset options with the reduced-scale defaults.
func (o Options) Defaults() Options {
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.SimTime == 0 {
		o.SimTime = 300 * time.Second
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if len(o.Protocols) == 0 {
		o.Protocols = scenario.AllProtocols
	}
	return o
}

// Cell is the one constructor every experiment's cells come from: the
// paper's scenario skeleton for the node count (100 selects the larger
// terrain; anything else rescales the 50-node one), stamped with the
// experiment's run length and scenario-diversity axes.
func (o Options) Cell(proto scenario.ProtocolName, nodes, flows int, pause time.Duration, seed int64) scenario.Config {
	cfg := scenario.Nodes50(proto, flows, pause, seed)
	if nodes == 100 {
		cfg = scenario.Nodes100(proto, flows, pause, seed)
	}
	cfg.Nodes = nodes
	cfg.SimTime = o.SimTime
	o.Axes.Apply(&cfg)
	return cfg
}

// trialSeeds yields the seed list for one configuration cell.
func (o Options) trialSeeds() []int64 {
	seeds := make([]int64, o.Trials)
	for i := range seeds {
		seeds[i] = o.BaseSeed + int64(i)
	}
	return seeds
}

// trials is the usual block of a row: the same cell at every trial
// seed, each passed through the edits (a fault plan, an LDR variant, ...).
func (o Options) trials(proto scenario.ProtocolName, nodes, flows int, pause time.Duration, edit ...func(*scenario.Config)) []scenario.Config {
	cfgs := make([]scenario.Config, o.Trials)
	for i, seed := range o.trialSeeds() {
		cfgs[i] = o.Cell(proto, nodes, flows, pause, seed)
		for _, e := range edit {
			e(&cfgs[i])
		}
	}
	return cfgs
}

// runMetrics is the per-run measurement vector (Table 1's columns). The
// fields are exported with JSON tags because journaled sweeps persist one
// runMetrics per cell; every field must round-trip through encoding/json
// exactly for resumed output to stay byte-identical.
type runMetrics struct {
	Delivery float64 `json:"delivery"`  // %
	Latency  float64 `json:"latency"`   // ms
	NetLoad  float64 `json:"net_load"`  // control pkts per received data pkt
	RREQLoad float64 `json:"rreq_load"` // RREQs per received data pkt
	RREPInit float64 `json:"rrep_init"` // RREPs initiated per RREQ initiated
	RREPRecv float64 `json:"rrep_recv"` // usable RREPs received per RREQ initiated
	Seqno    float64 `json:"seqno"`     // mean destination sequence number
}

func measureRun(res scenario.Result) runMetrics {
	c := res.Collector
	return runMetrics{
		Delivery: 100 * c.DeliveryRatio(),
		Latency:  float64(c.MeanLatency()) / float64(time.Millisecond),
		NetLoad:  c.NetworkLoad(),
		RREQLoad: c.RREQLoad(),
		RREPInit: c.RREPInitPerRREQ(),
		RREPRecv: c.RREPRecvPerRREQ(),
		Seqno:    c.MeanSeqno(),
	}
}

// Experiment is one name cmd/ldrbench's -exp accepts.
type Experiment struct {
	Name string
	Run  func(Options) error
	// Profiles are the names Options.Profiles may select from; nil for
	// an experiment that takes none.
	Profiles []string
	// Scope is the journal scope of the experiment's cells, which a
	// failure manifest names; empty means "metrics".
	Scope string
}

// paper is the paper-regeneration set, in the order "all" runs it.
func paper() []Experiment {
	fig := func(id string, nodes, flows int) func(Options) error {
		return func(o Options) error { return DeliveryFigure(o, id, nodes, flows) }
	}
	return []Experiment{
		{Name: "table1", Run: Table1},
		{Name: "fig2", Run: fig("Fig 2", 50, 10)},
		{Name: "fig3", Run: fig("Fig 3", 50, 30)},
		{Name: "fig4", Run: fig("Fig 4", 100, 10)},
		{Name: "fig5", Run: fig("Fig 5", 100, 30)},
		{Name: "fig6", Run: Fig6},
		{Name: "fig7", Run: Fig7},
		{Name: "ablation", Run: Ablation},
	}
}

// Registry lists every experiment: the paper set, "all" (that set in
// one run), then the ones that run only when named — the mobility and
// radio comparisons come from the follow-on literature, and chaos and
// adversary sweep fault and attack profiles under the continuous
// invariant audit.
func Registry() []Experiment {
	return append(paper(),
		Experiment{Name: "all", Run: all},
		Experiment{Name: "mobility", Run: Mobility},
		Experiment{Name: "radio", Run: Radio},
		Experiment{Name: "chaos", Run: Chaos, Profiles: fault.ProfileNames(), Scope: "chaos"},
		Experiment{Name: "adversary", Run: Adversary, Profiles: adversary.ProfileNames(), Scope: "adversary"})
}

// all regenerates the paper's evaluation, reporting each experiment's
// wall time on standard error as it finishes, so the tables on
// Options.Out stay byte-identical from run to run.
func all(o Options) error {
	for _, e := range paper() {
		start := time.Now()
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.Name, time.Since(start).Round(time.Second))
	}
	return nil
}

// CheckProfile rejects a name Options.Profiles cannot select for e.
func (e Experiment) CheckProfile(name string) error {
	if e.Profiles == nil {
		return fmt.Errorf("experiment %s takes no profiles", e.Name)
	}
	if !slices.Contains(e.Profiles, name) {
		return fmt.Errorf("experiment %s: unknown profile %q (have %s)", e.Name, name, strings.Join(e.Profiles, ", "))
	}
	return nil
}

// Names lists the registry's names in order, for flag help.
func Names() []string {
	var names []string
	for _, e := range Registry() {
		names = append(names, e.Name)
	}
	return names
}

// Find resolves an -exp value.
func Find(name string) (Experiment, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}
