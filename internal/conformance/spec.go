// Scenario specs: a run's whole shape in JSON-friendly units. Committed
// regression seeds, quarantine reproducers and model-checker witnesses
// are Specs; FuzzScenario draws them from a byte script.

package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/traffic"
)

// Spec is a serializable scenario: everything needed to rebuild a
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
	// and speed range rather than Config's derived defaults. Zero
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
	cfg, err := s.Config()
	if err != nil {
		return Report{}, err
	}
	cadence := 100 * time.Millisecond
	if s.AuditMS > 0 {
		cadence = time.Duration(s.AuditMS) * time.Millisecond
	}
	return Check(cfg, CheckConfig{Cadence: cadence})
}

// violates decides whether a report fails the harness's invariants:
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
