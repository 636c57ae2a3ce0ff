// Scripted replay specs. A Script pins everything a seeded spec
// randomizes — node positions, origination times, and fault timing — so
// a spec can replay an exact schedule rather than a seeded distribution.
// The bounded model checker (internal/modelcheck) emits its violation
// witnesses in this form: an abstract counterexample becomes a concrete
// full-stack scenario the conservation harness re-runs under MAC and
// radio timing.

package conformance

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// Script is the deterministic part of a Spec: static positions plus
// timed originations and faults. When present it overrides the spec's
// Flows/PauseSec randomized workload (Flows must be 0).
type Script struct {
	// Positions are static node coordinates in meters; len must equal the
	// spec's node count.
	Positions [][2]float64 `json:"positions"`
	// Traffic injects one data packet per event.
	Traffic []ScriptTraffic `json:"traffic,omitempty"`
	// Faults schedules crashes and link outages at exact instants.
	Faults []ScriptFault `json:"faults,omitempty"`
}

// ScriptTraffic is one scripted origination.
type ScriptTraffic struct {
	AtMS  int64 `json:"at_ms"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Bytes int   `json:"bytes,omitempty"` // 0 → 512
}

// ScriptFault is one scripted fault. Kind is "crash" or "linkdown";
// DurationMS < 0 means permanent (never heals), 0 selects the injector's
// default hold.
type ScriptFault struct {
	Kind       string `json:"kind"`
	AtMS       int64  `json:"at_ms"`
	DurationMS int64  `json:"duration_ms,omitempty"`
	Nodes      []int  `json:"nodes"`
}

// apply folds the script into a scenario config built from the spec.
func (sc *Script) apply(cfg *scenario.Config) error {
	if len(sc.Positions) != cfg.Nodes {
		return fmt.Errorf("conformance: script has %d positions for %d nodes", len(sc.Positions), cfg.Nodes)
	}
	if cfg.Flows != 0 {
		return fmt.Errorf("conformance: scripted spec requires flows=0 (have %d)", cfg.Flows)
	}
	cfg.Positions = make([]mobility.Point, len(sc.Positions))
	for i, p := range sc.Positions {
		cfg.Positions[i] = mobility.Point{X: p[0], Y: p[1]}
	}
	for _, ev := range sc.Traffic {
		cfg.Traffic = append(cfg.Traffic, scenario.TrafficEvent{
			At:  time.Duration(ev.AtMS) * time.Millisecond,
			Src: routing.NodeID(ev.Src), Dst: routing.NodeID(ev.Dst),
			Bytes: ev.Bytes,
		})
	}
	if len(sc.Faults) > 0 {
		if cfg.FaultPlan != nil {
			return fmt.Errorf("conformance: spec has both a fault profile (%s) and scripted faults", cfg.FaultPlan.Name)
		}
		plan := fault.Plan{Name: "script"}
		for _, f := range sc.Faults {
			var kind fault.Kind
			switch f.Kind {
			case "crash":
				kind = fault.Crash
			case "linkdown":
				kind = fault.LinkFlap
			default:
				return fmt.Errorf("conformance: unknown scripted fault kind %q", f.Kind)
			}
			plan.Specs = append(plan.Specs, fault.Spec{
				Kind:     kind,
				At:       time.Duration(f.AtMS) * time.Millisecond,
				Duration: time.Duration(f.DurationMS) * time.Millisecond,
				Nodes:    append([]int(nil), f.Nodes...),
			})
		}
		cfg.FaultPlan = &plan
	}
	return nil
}
