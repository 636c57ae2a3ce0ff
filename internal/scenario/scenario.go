// Package scenario assembles complete simulation runs: terrain, mobility,
// radio, MAC, protocol, and CBR workload, following §4 of the LDR paper.
//
// The two canonical setups are 50 nodes on 1500 m × 300 m and 100 nodes on
// 2200 m × 600 m, with 10- or 30-flow CBR loads, node speeds of 1–20 m/s,
// and pause times swept from 0 (constant motion) to the simulation length
// (static).
package scenario

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/traffic"
)

// ProtocolName selects the routing protocol under test.
type ProtocolName string

// The four protocols compared in the paper.
const (
	LDR   ProtocolName = "ldr"
	AODV  ProtocolName = "aodv"
	DSR   ProtocolName = "dsr"
	DSR7  ProtocolName = "dsr7" // QualNet draft-7 variant (Fig. 6)
	OLSR  ProtocolName = "olsr"
	OLSRJ ProtocolName = "olsr-nojitter" // ablation: jitter queue disabled
)

// AllProtocols are the paper's four protocols in presentation order.
var AllProtocols = []ProtocolName{LDR, AODV, DSR, OLSR}

// Mobility names the selectable mobility models.
const (
	Waypoint    = "waypoint"    // random waypoint (the paper's model)
	Manhattan   = "manhattan"   // street-grid constrained movement
	GaussMarkov = "gaussmarkov" // correlated-velocity smooth motion
)

// Mobilities lists the valid mobility model names, for flag validation
// and fuzzer draws.
func Mobilities() []string { return []string{Waypoint, Manhattan, GaussMarkov} }

// Radio names the selectable transmit-power profiles. Classes are
// assigned per node id (i % len(classes), see radio.Config.Classes), so
// a profile is a pure function of the node count — no randomness drawn.
const (
	RadioUniform = "uniform" // every node at the paper's 275 m disk
	RadioMixed   = "mixed"   // three interleaved classes around the default
	RadioAsym    = "asym"    // alternating long/short classes, maximizing one-way links
)

// Radios lists the valid radio profile names, for flag validation and
// fuzzer draws.
func Radios() []string { return []string{RadioUniform, RadioMixed, RadioAsym} }

// RadioClasses maps a radio profile name to its transmit-power classes;
// nil is the medium's one default class, the uniform disk.
func RadioClasses(name string) ([]radio.Class, error) {
	switch name {
	case "", RadioUniform:
		return nil, nil
	case RadioMixed:
		// Weak, default, and strong radios interleaved: plenty of
		// one-way links without stranding whole regions.
		return []radio.Class{
			{Range: 200, CSRange: 450},
			{Range: 275, CSRange: 550},
			{Range: 350, CSRange: 650},
		}, nil
	case RadioAsym:
		// Every other node is a long-range transmitter the short-range
		// half can hear but never answer — the starkest asymmetric-link
		// regime the MAC ACK and reverse-path code must survive.
		return []radio.Class{
			{Range: 375, CSRange: 650},
			{Range: 150, CSRange: 450},
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown radio profile %q", name)
	}
}

// Config describes one simulation run.
//
// Config's JSON encoding is a journal key (resilience.SpecHash), so every
// field whose zero value is the paper's setup is left out of it when zero:
// adding such a field, or deleting one, then moves no other cell's key.
type Config struct {
	Protocol  ProtocolName
	Nodes     int
	Terrain   mobility.Terrain
	Flows     int
	PauseTime time.Duration
	MinSpeed  float64 // m/s
	MaxSpeed  float64 // m/s
	SimTime   time.Duration
	Seed      int64

	// Mobility selects the movement model ("" → random waypoint). The
	// speed and pause fields above parameterize whichever model runs:
	// Manhattan pauses at intersections and draws leg speeds from
	// [MinSpeed, MaxSpeed]; Gauss-Markov reverts to the mid-range speed.
	// Scripted Positions (below) override the model entirely.
	Mobility string `json:",omitempty"`

	// Radio selects a named heterogeneous transmit-power profile ("" or
	// "uniform" → the paper's single 275 m disk). Non-uniform profiles
	// assign radio.Config.Classes per node id, making links directional.
	Radio string `json:",omitempty"`

	// RTSCTS enables the MAC's RTS/CTS virtual carrier sensing (off in
	// the paper's setup; exposed for the MAC-level ablation).
	RTSCTS bool `json:",omitempty"`

	// LDRConfig overrides the LDR configuration when Protocol == LDR
	// (used by the ablation benchmarks). Nil selects the defaults.
	LDRConfig *core.Config `json:",omitempty"`

	// RingStart overrides the first ring's TTL of LDR's and AODV's
	// expanding-ring search (ondemand.Discoveries.RingStart); 0 keeps
	// ondemand.TTLStart. The ablation's no-ring arms set NetDiameter: the
	// first attempt floods at once.
	RingStart int `json:",omitempty"`

	// FaultPlan, when non-nil, runs the scenario under fault injection:
	// node crash/reboot cycles, link blackouts, partitions, and
	// message-level delivery faults (see internal/fault). The injector
	// draws from its own seeded stream, so adding a plan does not
	// perturb the mobility, traffic, or MAC randomness of the run.
	FaultPlan *fault.Plan `json:",omitempty"`

	// AdversaryPlan, when non-nil, compromises nodes per the plan before
	// the run starts: they forge inflated-seqno replies to overheard
	// route requests (see internal/adversary). Like FaultPlan it draws from a dedicated
	// stream (root.Split("adversary")) and composes freely with fault
	// injection in the same run.
	AdversaryPlan *adversary.Plan `json:",omitempty"`

	// AuditCadence > 0 enables the continuous invariant auditor: every
	// routing table is snapshotted at this virtual-time period and loop/
	// ordering violations are scored into the collector (AuditSnapshots,
	// LoopViolations, OrderingViolations).
	AuditCadence time.Duration `json:",omitempty"`

	// Positions, when non-empty, replaces the random-waypoint model with
	// static nodes at these coordinates (len must equal Nodes). Scripted
	// replays — model-checker witnesses in particular — use it to pin the
	// exact topology the abstract schedule assumed.
	Positions []mobility.Point `json:",omitempty"`

	// Traffic, when non-empty, replaces the CBR generator with an explicit
	// origination script (Flows must be 0). Each event injects one data
	// packet at its source node at the given virtual time.
	Traffic []TrafficEvent `json:",omitempty"`
}

// TrafficEvent is one scripted data origination.
type TrafficEvent struct {
	At       time.Duration
	Src, Dst routing.NodeID
	Bytes    int // 0 → traffic.PacketBytes
}

// Nodes50 is the paper's 50-node scenario skeleton.
func Nodes50(proto ProtocolName, flows int, pause time.Duration, seed int64) Config {
	return Config{
		Protocol:  proto,
		Nodes:     50,
		Terrain:   mobility.Terrain{Width: 1500, Height: 300},
		Flows:     flows,
		PauseTime: pause,
		MinSpeed:  1,
		MaxSpeed:  20,
		SimTime:   900 * time.Second,
		Seed:      seed,
	}
}

// Nodes100 is the paper's 100-node scenario skeleton.
func Nodes100(proto ProtocolName, flows int, pause time.Duration, seed int64) Config {
	cfg := Nodes50(proto, flows, pause, seed)
	cfg.Nodes = 100
	cfg.Terrain = mobility.Terrain{Width: 2200, Height: 600}
	return cfg
}

// Result carries a finished run's metrics.
type Result struct {
	Config    Config
	Collector *metrics.Collector
	Events    uint64 // simulator events executed (cost measure)

	// Faults counts what the injector actually did (zero value when the
	// config had no plan).
	Faults fault.Stats
	// Adversary counts what the compromised nodes actually did (zero
	// value when the config had no adversary plan).
	Adversary adversary.Stats
	// Violations samples the first audited violations (nil when auditing
	// was off or the run was clean); counters live in the Collector.
	Violations []fault.Record

	// Interrupted reports that the run was stopped early at an event
	// boundary (Control.Interrupt — a SIGINT handler or sweep watchdog).
	// The metrics cover only the virtual time actually simulated.
	Interrupted bool `json:"Interrupted,omitempty"`
}

// SeqnoReporter is implemented by protocols that track destination
// sequence numbers (LDR, AODV) for the Fig. 7 measurement.
type SeqnoReporter interface {
	ReportSeqnos(*metrics.Collector)
}

// Instruments are the optional per-run fault instruments; Injector and
// Auditor are nil when the config does not enable them. Root is the
// scenario-level RNG root (mobility, traffic, faults); together with
// routing.Network.Root it accounts for every random draw of the run.
type Instruments struct {
	Injector  *fault.Injector
	Auditor   *fault.Auditor
	Adversary *adversary.Engine
	Root      *rng.Source
}

// Build constructs the network and workload without running them, for
// callers that need mid-run access (invariant checkers, examples).
func Build(cfg Config) (*routing.Network, *traffic.Generator, error) {
	nw, gen, _, err := BuildInstrumented(cfg)
	return nw, gen, err
}

// BuildInstrumented is Build plus the fault injector and continuous
// auditor requested by the config, already scheduled (they start firing
// when the simulation runs).
func BuildInstrumented(cfg Config) (*routing.Network, *traffic.Generator, *Instruments, error) {
	if err := cfg.checkNodes(); err != nil {
		return nil, nil, nil, err
	}
	factory, err := Factory(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	root := rng.New(cfg.Seed)
	model, err := buildMobility(cfg, root.Split("mobility"))
	if err != nil {
		return nil, nil, nil, err
	}

	cls, err := RadioClasses(cfg.Radio)
	if err != nil {
		return nil, nil, nil, err
	}
	nw := routing.NewNetwork(cfg.Nodes, model, radio.Config{Classes: cls}, mac.Config{RTSCTSEnabled: cfg.RTSCTS}, cfg.Seed, factory)
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes,
		traffic.Config{Flows: cfg.Flows, Stop: cfg.SimTime}, root.Split("traffic"))
	if len(cfg.Traffic) > 0 {
		if cfg.Flows != 0 {
			return nil, nil, nil, fmt.Errorf("scenario: scripted traffic requires Flows=0 (have %d)", cfg.Flows)
		}
		for _, ev := range cfg.Traffic {
			ev := ev
			bytes := ev.Bytes
			if bytes == 0 {
				bytes = traffic.PacketBytes
			}
			nw.Sim.Schedule(ev.At, func() { nw.Nodes[ev.Src].OriginateData(ev.Dst, bytes) })
		}
	}

	inst := &Instruments{Root: root}
	if cfg.AdversaryPlan != nil && !cfg.AdversaryPlan.Empty() {
		// Install before Start: compromising a node swaps its bound
		// protocol for the Byzantine wrapper.
		inst.Adversary = adversary.NewEngine(nw, *cfg.AdversaryPlan, root.Split("adversary"))
		inst.Adversary.Install()
	}
	if cfg.FaultPlan != nil {
		inst.Injector = fault.NewInjector(nw, *cfg.FaultPlan, root.Split("fault"), cfg.SimTime)
		inst.Injector.Start()
	}
	if cfg.AuditCadence > 0 {
		inst.Auditor = fault.NewAuditor(nw, fault.AuditConfig{Cadence: cfg.AuditCadence, Until: cfg.SimTime})
		inst.Auditor.Start()
	}
	return nw, gen, inst, nil
}

// checkNodes rejects a negative node count, random flows among fewer
// than two nodes, and a traffic event or scripted fault naming a node
// outside [0, Nodes): the network would panic on it, and a config read
// from disk must fail with an error.
func (cfg Config) checkNodes() error {
	if cfg.Nodes < 0 {
		return fmt.Errorf("scenario: negative node count %d", cfg.Nodes)
	}
	if cfg.Flows > 0 && cfg.Nodes < 2 {
		return fmt.Errorf("scenario: %d random flows need at least two nodes (have %d)", cfg.Flows, cfg.Nodes)
	}
	inRange := func(id int) bool { return id >= 0 && id < cfg.Nodes }
	for _, ev := range cfg.Traffic {
		if !inRange(int(ev.Src)) || !inRange(int(ev.Dst)) {
			return fmt.Errorf("scenario: traffic event %d->%d out of range", ev.Src, ev.Dst)
		}
	}
	if cfg.FaultPlan != nil {
		for _, spec := range cfg.FaultPlan.Specs {
			for _, id := range spec.Nodes {
				if !inRange(id) {
					return fmt.Errorf("scenario: %v fault on node %d out of range", spec.Kind, id)
				}
			}
		}
	}
	return nil
}

// Run executes the scenario to completion and returns its metrics.
func Run(cfg Config) (Result, error) {
	return RunWithControl(cfg, nil)
}

// Observer sees a run's network and instruments once they are built and
// before the network starts: it may install a tracer or schedule
// read-only inspections, and it keeps both for after the run.
type Observer func(*routing.Network, *Instruments)

// RunWithControl is Run with an optional observer and zero or more
// Controls bound to the run's simulator, so signal handlers and sweep
// watchdogs can stop it at an event boundary. It is the one run loop:
// build, observe, start, run to SimTime plus a two-second drain, report
// sequence numbers, stop. Nil controls are ignored. An interrupted run
// is not an error: it returns the partial Result with Interrupted set.
func RunWithControl(cfg Config, observe Observer, ctls ...*Control) (Result, error) {
	nw, gen, inst, err := BuildInstrumented(cfg)
	if err != nil {
		return Result{}, err
	}
	for _, c := range ctls {
		c.Bind(nw.Sim)
	}
	if observe != nil {
		observe(nw, inst)
	}
	nw.Start()
	gen.Start()
	// Drain for a short tail so in-flight packets settle before metrics
	// are read (the paper's runs do the same implicitly by stopping flows
	// before the simulation end).
	nw.Sim.Run(cfg.SimTime + 2*time.Second)
	for _, n := range nw.Nodes {
		if r, ok := n.Protocol().(SeqnoReporter); ok {
			r.ReportSeqnos(nw.Collector)
		}
	}
	nw.Stop()
	res := Result{
		Config:      cfg,
		Collector:   nw.Collector,
		Events:      nw.Sim.EventsFired(),
		Interrupted: nw.Sim.Interrupted(),
	}
	if inst.Injector != nil {
		res.Faults = inst.Injector.Stats
	}
	if inst.Adversary != nil {
		res.Adversary = inst.Adversary.Stats
	}
	if inst.Auditor != nil {
		res.Violations = inst.Auditor.Records
	}
	return res, nil
}

// buildMobility resolves the config's movement model. Scripted Positions
// take precedence; otherwise the named model is parameterized from the
// scenario's terrain and speed fields. Every model draws from the same
// root.Split("mobility") stream, so switching models never perturbs the
// traffic, MAC, or fault randomness of the run.
func buildMobility(cfg Config, src *rng.Source) (mobility.Model, error) {
	if len(cfg.Positions) > 0 {
		if len(cfg.Positions) != cfg.Nodes {
			return nil, fmt.Errorf("scenario: %d positions for %d nodes", len(cfg.Positions), cfg.Nodes)
		}
		return mobility.NewStatic(cfg.Positions), nil
	}
	switch cfg.Mobility {
	case "", Waypoint:
		return mobility.NewWaypoint(cfg.Nodes, mobility.WaypointConfig{
			Terrain:  cfg.Terrain,
			MinSpeed: cfg.MinSpeed,
			MaxSpeed: cfg.MaxSpeed,
			Pause:    cfg.PauseTime,
		}, src), nil
	case Manhattan:
		return mobility.NewManhattan(cfg.Nodes, mobility.ManhattanConfig{
			Terrain:  cfg.Terrain,
			MinSpeed: cfg.MinSpeed,
			MaxSpeed: cfg.MaxSpeed,
			Pause:    cfg.PauseTime,
		}, src), nil
	case GaussMarkov:
		return mobility.NewGaussMarkov(cfg.Nodes, mobility.GaussMarkovConfig{
			Terrain:   cfg.Terrain,
			MeanSpeed: (cfg.MinSpeed + cfg.MaxSpeed) / 2,
			MaxSpeed:  cfg.MaxSpeed,
		}, src), nil
	default:
		return nil, fmt.Errorf("scenario: unknown mobility model %q", cfg.Mobility)
	}
}

// Factory returns the constructor of cfg's Protocol, with its LDRConfig
// and RingStart applied; the other fields are not read.
func Factory(cfg Config) (routing.ProtocolFactory, error) {
	ring := cfg.RingStart
	switch name := cfg.Protocol; name {
	case LDR:
		ldr := core.DefaultConfig()
		if cfg.LDRConfig != nil {
			ldr = *cfg.LDRConfig
		}
		return func(n *routing.Node) routing.Protocol {
			l := core.New(n, ldr)
			if ring != 0 {
				l.RingStart = ring
			}
			return l
		}, nil
	case AODV:
		return func(n *routing.Node) routing.Protocol {
			a := aodv.New(n)
			if ring != 0 {
				a.RingStart = ring
			}
			return a
		}, nil
	case DSR:
		return func(n *routing.Node) routing.Protocol { return dsr.New(n, dsr.DefaultConfig()) }, nil
	case DSR7:
		return func(n *routing.Node) routing.Protocol { return dsr.New(n, dsr.Draft7Config()) }, nil
	case OLSR:
		return func(n *routing.Node) routing.Protocol { return olsr.New(n, olsr.DefaultConfig()) }, nil
	case OLSRJ:
		cfg := olsr.DefaultConfig()
		cfg.JitterQueue = false
		return func(n *routing.Node) routing.Protocol { return olsr.New(n, cfg) }, nil
	default:
		if f, ok := registeredFactory(name); ok {
			return f, nil
		}
		return nil, fmt.Errorf("scenario: unknown protocol %q", name)
	}
}

// PauseTimes is the paper's pause-time sweep for a given simulation
// length: 0 s (constant motion) through the full length (static).
func PauseTimes(simTime time.Duration) []time.Duration {
	full := []time.Duration{
		0, 30 * time.Second, 60 * time.Second, 120 * time.Second,
		300 * time.Second, 600 * time.Second, 900 * time.Second,
	}
	var out []time.Duration
	for _, p := range full {
		if p < simTime {
			out = append(out, p)
		}
	}
	return append(out, simTime)
}
