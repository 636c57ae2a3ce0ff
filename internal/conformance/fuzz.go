// Seeded scenario fuzzing with greedy shrinking. The fuzzer sweeps
// random (protocol × node count × fault profile × traffic) scenarios
// through the conservation harness; any violating run is minimized —
// drop flows, then drop faults, then shorten simtime — into a small
// reproducer that can be committed as a regression seed under
// testdata/.

package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
	"github.com/manetlab/ldr/internal/traffic"
)

// Spec is a serializable fuzz scenario: everything needed to rebuild a
// run, in JSON-friendly units. Committed regression seeds are Specs.
type Spec struct {
	Protocol   string  `json:"protocol"`
	Nodes      int     `json:"nodes"`
	Flows      int     `json:"flows"`
	PauseSec   float64 `json:"pause_sec"`
	SimTimeSec float64 `json:"simtime_sec"`
	Seed       int64   `json:"seed"`
	Profile    string  `json:"profile"`             // fault.ProfileNames entry
	Adversary  string  `json:"adversary,omitempty"` // adversary.ProfileNames entry
	Mobility   string  `json:"mobility,omitempty"`  // scenario.Mobilities entry ("" → waypoint)
	Traffic    string  `json:"traffic,omitempty"`   // traffic pattern ("" → cbr)
	Radio      string  `json:"radio,omitempty"`     // scenario.Radios entry ("" → uniform disk)
	Density    string  `json:"density,omitempty"`   // scenario.Densities entry ("" → uniform placement)
	AuditMS    int     `json:"audit_ms"`
	Note       string  `json:"note,omitempty"`

	// Exact-geometry overrides, used by reproducers emitted from sweep
	// cells (SpecFromConfig) so a seed replays the cell's true terrain
	// and speed range rather than the fuzzer's derived defaults. Zero
	// values select the defaults: a 40 m × Nodes by 300 m strip and the
	// paper's 1–20 m/s speed range.
	TerrainW float64 `json:"terrain_w,omitempty"`
	TerrainH float64 `json:"terrain_h,omitempty"`
	MinSpeed float64 `json:"min_speed,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`

	// Script, when non-nil, replaces the randomized workload with exact
	// positions, origination times, and fault timing (see Script). Used
	// by model-checker witnesses.
	Script *Script `json:"script,omitempty"`
}

// String renders the spec compactly for logs.
func (s Spec) String() string {
	adv := ""
	if s.Adversary != "" && s.Adversary != "none" {
		adv = "+" + s.Adversary
	}
	axes := ""
	if s.Mobility != "" && s.Mobility != scenario.Waypoint {
		axes += " mobility=" + s.Mobility
	}
	if s.Traffic != "" && s.Traffic != string(traffic.CBR) {
		axes += " traffic=" + s.Traffic
	}
	if s.Radio != "" && s.Radio != scenario.RadioUniform {
		axes += " radio=" + s.Radio
	}
	if s.Density != "" && s.Density != scenario.DensityUniform {
		axes += " density=" + s.Density
	}
	return fmt.Sprintf("%s/%s%s nodes=%d flows=%d pause=%.0fs sim=%.0fs seed=%d%s",
		s.Protocol, s.Profile, adv, s.Nodes, s.Flows, s.PauseSec, s.SimTimeSec, s.Seed, axes)
}

// Config expands the spec into a runnable scenario configuration. The
// terrain scales with the node count at the chaos rig's density (a
// 25-node spec gets the 1000 m × 300 m strip the fault tests use).
func (s Spec) Config() (scenario.Config, error) {
	simTime := time.Duration(s.SimTimeSec * float64(time.Second))
	terrain := mobility.Terrain{Width: float64(40 * s.Nodes), Height: 300}
	if s.TerrainW > 0 {
		terrain.Width = s.TerrainW
	}
	if s.TerrainH > 0 {
		terrain.Height = s.TerrainH
	}
	minSpeed, maxSpeed := 1.0, 20.0
	if s.MinSpeed > 0 {
		minSpeed = s.MinSpeed
	}
	if s.MaxSpeed > 0 {
		maxSpeed = s.MaxSpeed
	}
	cfg := scenario.Config{
		Protocol:  scenario.ProtocolName(s.Protocol),
		Nodes:     s.Nodes,
		Terrain:   terrain,
		Flows:     s.Flows,
		PauseTime: time.Duration(s.PauseSec * float64(time.Second)),
		MinSpeed:  minSpeed,
		MaxSpeed:  maxSpeed,
		SimTime:   simTime,
		Seed:      s.Seed,
	}
	if _, err := scenario.Factory(cfg.Protocol, nil); err != nil {
		return scenario.Config{}, err
	}
	axes := scenario.Axes{Mobility: s.Mobility, TrafficPattern: s.Traffic, Radio: s.Radio, Density: s.Density}
	if err := axes.Validate(); err != nil {
		return scenario.Config{}, fmt.Errorf("conformance: %w", err)
	}
	axes.Apply(&cfg)
	if s.Profile != "" && s.Profile != "none" {
		plan, err := fault.Profile(s.Profile, s.Nodes, simTime)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.FaultPlan = &plan
	}
	if s.Adversary != "" && s.Adversary != "none" {
		plan, err := adversary.Profile(s.Adversary, s.Nodes, simTime)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.AdversaryPlan = &plan
	}
	if s.AuditMS > 0 {
		cfg.AuditCadence = time.Duration(s.AuditMS) * time.Millisecond
	}
	if s.Script != nil {
		if err := s.Script.apply(&cfg); err != nil {
			return scenario.Config{}, err
		}
	}
	return cfg, nil
}

// LoadSpec reads a Spec from a JSON file (a committed regression seed).
// A key the Spec does not have is an error naming it, as is anything
// after the object: a seed carrying a retired or misspelt axis would
// otherwise replay a different scenario than it names.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("conformance: %s: %w", path, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("conformance: %s: trailing data after the spec", path)
	}
	return s, nil
}

// CheckSpec runs the spec under the conservation harness, auditing at
// the spec's cadence (default 100 ms).
func CheckSpec(s Spec) (Report, error) {
	return checkSpecControlled(s, nil)
}

// checkSpecControlled is CheckSpec bound to an optional sweep Control so
// a fuzz cell's watchdog can interrupt it.
func checkSpecControlled(s Spec, ctl *scenario.Control) (Report, error) {
	cfg, err := s.Config()
	if err != nil {
		return Report{}, err
	}
	cadence := 100 * time.Millisecond
	if s.AuditMS > 0 {
		cadence = time.Duration(s.AuditMS) * time.Millisecond
	}
	return CheckControlled(cfg, CheckConfig{Cadence: cadence}, ctl)
}

// violates decides whether a report fails the fuzzer's invariants:
// any conservation violation, a delivery ratio above one, or — for LDR,
// whose loop freedom is the paper's central claim — any loop violation
// from the continuous loopcheck auditor. (AODV forming loops under
// reboot faults is the van Glabbeek result, not an implementation bug,
// so other protocols' loop counters are not failures here.)
func violates(s Spec, r Report) bool {
	if r.Total > 0 {
		return true
	}
	if r.Collector.DeliveryRatio() > 1 {
		return true
	}
	if s.Protocol == string(scenario.LDR) && r.Collector.LoopViolations > 0 {
		return true
	}
	return false
}

// Options parameterize a fuzz sweep. Zero values select the defaults in
// parentheses.
type Options struct {
	Runs        int                              // scenarios to generate (32)
	Seed        int64                            // generator seed (1)
	Workers     int                              // parallel cells (GOMAXPROCS)
	MaxNodes    int                              // node-count bound (30, min 8)
	MaxSimTime  time.Duration                    // simulated length bound (45 s, min 5 s)
	Protocols   []string                         // candidate protocols (the paper's four)
	Profiles    []string                         // candidate fault profiles (all built-ins)
	Adversaries []string                         // candidate adversary profiles (all built-ins)
	Mobilities  []string                         // candidate mobility models (all of scenario.Mobilities)
	Traffics    []string                         // candidate traffic patterns (all of traffic.Patterns)
	Radios      []string                         // candidate radio profiles (all of scenario.Radios)
	Densities   []string                         // candidate density profiles (all of scenario.Densities)
	Shrink      bool                             // minimize findings
	Log         func(format string, args ...any) // progress sink, may be nil

	// Exec carries the sweep resilience options: journal (scope "fuzz"),
	// per-cell watchdog, keep-going quarantine, retry. A journaled fuzz
	// sweep killed mid-run resumes without re-checking completed
	// scenarios and reports the identical findings.
	Exec sweep.ExecOptions
	// Progress, when non-nil, is wired through to the sweep.
	Progress *sweep.Progress
}

func (o *Options) defaults() {
	if o.Runs <= 0 {
		o.Runs = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxNodes < 8 {
		o.MaxNodes = 30
	}
	if o.MaxSimTime < 5*time.Second {
		o.MaxSimTime = 45 * time.Second
	}
	if len(o.Protocols) == 0 {
		for _, p := range scenario.AllProtocols {
			o.Protocols = append(o.Protocols, string(p))
		}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = fault.ProfileNames()
	}
	if len(o.Adversaries) == 0 {
		o.Adversaries = adversary.ProfileNames()
	}
	if len(o.Mobilities) == 0 {
		o.Mobilities = scenario.Mobilities()
	}
	if len(o.Traffics) == 0 {
		o.Traffics = scenario.Traffics()
	}
	if len(o.Radios) == 0 {
		o.Radios = scenario.Radios()
	}
	if len(o.Densities) == 0 {
		o.Densities = scenario.Densities()
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// Finding is one violating scenario, with its minimized form.
type Finding struct {
	Spec       Spec     `json:"spec"`
	Shrunk     Spec     `json:"shrunk"`
	Total      uint64   `json:"violation_total"`
	Violations []string `json:"violations"`
}

// genSpec draws one scenario from the generator stream. Every draw
// happens unconditionally so the stream position after spec i never
// depends on the values drawn for specs 0..i-1's fields.
func genSpec(o *Options, src *rng.Source) Spec {
	proto := o.Protocols[src.Intn(len(o.Protocols))]
	nodes := 8 + src.Intn(o.MaxNodes-7)
	flows := 1 + src.Intn(8)
	pause := float64(src.Intn(31))
	minSim := 5.0
	maxSim := o.MaxSimTime.Seconds()
	simt := minSim + float64(src.Intn(int(maxSim-minSim)+1))
	seed := src.Int63()
	profile := o.Profiles[src.Intn(len(o.Profiles))]
	adv := o.Adversaries[src.Intn(len(o.Adversaries))]
	mob := o.Mobilities[src.Intn(len(o.Mobilities))]
	traf := o.Traffics[src.Intn(len(o.Traffics))]
	rad := o.Radios[src.Intn(len(o.Radios))]
	dens := o.Densities[src.Intn(len(o.Densities))]
	audit := 50 + src.Intn(150)
	return Spec{
		Protocol: proto, Nodes: nodes, Flows: flows,
		PauseSec: pause, SimTimeSec: simt, Seed: seed,
		Profile: profile, Adversary: adv,
		Mobility: mob, Traffic: traf,
		Radio: rad, Density: dens,
		AuditMS: audit,
	}
}

// fuzzOutcome is the journaled payload of one fuzz cell: just the
// verdict, not the full report, so records stay small and the journal
// never has to round-trip a collector it does not render.
type fuzzOutcome struct {
	Violates   bool     `json:"violates"`
	Total      uint64   `json:"total"`
	Violations []string `json:"violations,omitempty"`
}

// Fuzz generates Runs random scenarios, checks them across a worker
// pool, and returns the violating ones (shrunk when requested) in
// generation order. The sweep is deterministic in (Seed, Runs): worker
// count changes neither the scenarios generated nor the findings, and a
// journaled sweep resumed after a kill reports the identical findings —
// the generator stream is a pure function of Seed, so resumed cells
// re-derive the same specs and completed ones replay from the journal.
//
// With Exec.KeepGoing, findings from completed cells are returned
// alongside the sweep.Failures error describing quarantined cells.
func Fuzz(o Options) ([]Finding, error) {
	o.defaults()
	src := rng.New(o.Seed)
	specs := make([]Spec, o.Runs)
	cfgs := make([]scenario.Config, o.Runs)
	for i := range specs {
		specs[i] = genSpec(&o, src)
		cfg, err := specs[i].Config()
		if err != nil {
			return nil, fmt.Errorf("conformance: spec %d: %w", i, err)
		}
		cfgs[i] = cfg
	}

	exec := o.Exec
	if exec.Scope == "" {
		exec.Scope = "fuzz"
	}
	outcomes, sweepErr := sweep.RunCells(cfgs, sweep.Options{
		Workers:  o.Workers,
		Progress: o.Progress,
		Exec:     exec,
	}, func(i int, ctl *scenario.Control) (fuzzOutcome, error) {
		r, err := checkSpecControlled(specs[i], ctl)
		if err != nil {
			return fuzzOutcome{}, err
		}
		out := fuzzOutcome{Violates: violates(specs[i], r), Total: r.Total}
		for _, v := range r.Violations {
			out.Violations = append(out.Violations, v.String())
		}
		return out, nil
	})
	if sweepErr != nil && outcomes == nil {
		return nil, sweepErr
	}

	var findings []Finding
	for i, out := range outcomes {
		if !out.Violates {
			continue
		}
		o.Log("violation: %s (%d violations)", specs[i], out.Total)
		f := Finding{Spec: specs[i], Shrunk: specs[i], Total: out.Total, Violations: out.Violations}
		if o.Shrink {
			shrunk, sr, err := Shrink(specs[i], o.Log)
			if err != nil {
				return nil, err
			}
			f.Shrunk, f.Total = shrunk, sr.Total
			f.Violations = nil
			for _, v := range sr.Violations {
				f.Violations = append(f.Violations, v.String())
			}
		}
		findings = append(findings, f)
	}
	return findings, sweepErr
}

// Shrink greedily minimizes a violating spec while it keeps violating:
// halve the flow count, then drop the fault profile, then drop the
// adversary profile, then revert mobility/traffic/radio/density to
// their waypoint/CBR/uniform/uniform defaults, then halve the simulated
// time (floor 2 s). Each accepted step re-verifies the violation, so the
// result is always a genuine reproducer. logf may be nil.
func Shrink(s Spec, logf func(string, ...any)) (Spec, Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	best := s
	bestReport, err := CheckSpec(best)
	if err != nil {
		return Spec{}, Report{}, err
	}
	if !violates(best, bestReport) {
		return best, bestReport, fmt.Errorf("conformance: shrink of non-violating spec %s", s)
	}
	try := func(cand Spec) bool {
		r, err := CheckSpec(cand)
		if err != nil || !violates(cand, r) {
			return false
		}
		best, bestReport = cand, r
		logf("shrink: kept %s", cand)
		return true
	}
	for best.Flows > 1 {
		cand := best
		cand.Flows = best.Flows / 2
		if !try(cand) {
			break
		}
	}
	if best.Profile != "" && best.Profile != "none" {
		cand := best
		cand.Profile = "none"
		try(cand)
	}
	if best.Adversary != "" && best.Adversary != "none" {
		cand := best
		cand.Adversary = "none"
		try(cand)
	}
	if best.Mobility != "" && best.Mobility != scenario.Waypoint {
		cand := best
		cand.Mobility = ""
		try(cand)
	}
	if best.Traffic != "" && best.Traffic != string(traffic.CBR) {
		cand := best
		cand.Traffic = ""
		try(cand)
	}
	if best.Radio != "" && best.Radio != scenario.RadioUniform {
		cand := best
		cand.Radio = ""
		try(cand)
	}
	if best.Density != "" && best.Density != scenario.DensityUniform {
		cand := best
		cand.Density = ""
		try(cand)
	}
	for best.SimTimeSec > 2 {
		cand := best
		cand.SimTimeSec = best.SimTimeSec / 2
		if cand.SimTimeSec < 2 {
			cand.SimTimeSec = 2
		}
		if !try(cand) {
			break
		}
	}
	return best, bestReport, nil
}
