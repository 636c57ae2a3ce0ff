// Reproducer emission for quarantined sweep cells. When a cell of a
// journaled sweep panics (or hangs past its watchdog grace), the sweep's
// failure hook lands here: the cell's scenario.Config is folded back
// into a portable Spec — the same JSON format FuzzScenario and ldrcheck
// emit and LoadSpec reads — and written durably next to the journal, so
// the failure replays standalone (LoadSpec + CheckSpec; dropping the
// file into testdata/ makes TestRegressionSeeds do exactly that)
// without re-running the sweep.

package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// SpecFromConfig folds a scenario configuration back into a portable
// Spec. Fault and adversary plans are kept when they are exactly a named
// profile's expansion (the case for every experiment and chaos cell);
// scripted positions and traffic round-trip through the Script form.
// Anything the Spec format cannot carry — a custom plan, an LDR
// parameter override, RTS/CTS — is recorded in Note so the reproducer
// never silently claims more fidelity than it has.
func SpecFromConfig(cfg scenario.Config) (Spec, error) {
	s := Spec{
		Protocol:   string(cfg.Protocol),
		Nodes:      cfg.Nodes,
		Flows:      cfg.Flows,
		PauseSec:   cfg.PauseTime.Seconds(),
		SimTimeSec: cfg.SimTime.Seconds(),
		Seed:       cfg.Seed,
		TerrainW:   cfg.Terrain.Width,
		TerrainH:   cfg.Terrain.Height,
		MinSpeed:   cfg.MinSpeed,
		MaxSpeed:   cfg.MaxSpeed,
		AuditMS:    int(cfg.AuditCadence / time.Millisecond),
	}
	var lost []string
	if cfg.FaultPlan != nil {
		if plan, err := fault.Profile(cfg.FaultPlan.Name, cfg.Nodes, cfg.SimTime); err == nil && reflect.DeepEqual(plan, *cfg.FaultPlan) {
			s.Profile = cfg.FaultPlan.Name
		} else if cfg.FaultPlan.Name == "script" {
			// Re-expressed below through the Script form.
		} else {
			lost = append(lost, fmt.Sprintf("fault plan %q (not a named profile)", cfg.FaultPlan.Name))
		}
	}
	if cfg.AdversaryPlan != nil {
		if plan, err := adversary.Profile(cfg.AdversaryPlan.Name, cfg.Nodes, cfg.SimTime); err == nil && reflect.DeepEqual(plan, *cfg.AdversaryPlan) {
			s.Adversary = cfg.AdversaryPlan.Name
		} else {
			lost = append(lost, fmt.Sprintf("adversary plan %q (not a named profile)", cfg.AdversaryPlan.Name))
		}
	}
	if len(cfg.Positions) > 0 || len(cfg.Traffic) > 0 {
		sc := &Script{}
		for _, p := range cfg.Positions {
			sc.Positions = append(sc.Positions, [2]float64{p.X, p.Y})
		}
		for _, ev := range cfg.Traffic {
			if ev.At%time.Millisecond != 0 {
				lost = append(lost, "sub-millisecond traffic timing")
			}
			sc.Traffic = append(sc.Traffic, ScriptTraffic{
				AtMS: int64(ev.At / time.Millisecond),
				Src:  int(ev.Src), Dst: int(ev.Dst), Bytes: ev.Bytes,
			})
		}
		if cfg.FaultPlan != nil && cfg.FaultPlan.Name == "script" {
			for _, f := range cfg.FaultPlan.Specs {
				var kind string
				switch f.Kind {
				case fault.Crash:
					kind = "crash"
				case fault.LinkFlap:
					kind = "linkdown"
				default:
					lost = append(lost, fmt.Sprintf("scripted fault kind %v", f.Kind))
					continue
				}
				sc.Faults = append(sc.Faults, ScriptFault{
					Kind: kind,
					AtMS: int64(f.At / time.Millisecond), DurationMS: int64(f.Duration / time.Millisecond),
					Nodes: append([]int(nil), f.Nodes...),
				})
			}
		}
		s.Script = sc
	} else if cfg.FaultPlan != nil && cfg.FaultPlan.Name == "script" {
		lost = append(lost, "scripted faults without scripted positions")
	}
	if cfg.RTSCTS {
		lost = append(lost, "RTS/CTS")
	}
	if cfg.LDRConfig != nil {
		lost = append(lost, "LDR parameter overrides")
	}
	for _, l := range lost {
		if s.Note != "" {
			s.Note += "; "
		}
		s.Note += "not carried: " + l
	}
	if _, err := s.Config(); err != nil {
		return Spec{}, fmt.Errorf("conformance: config does not fold into a spec: %w", err)
	}
	return s, nil
}

// EmitReproducer writes spec as a standalone JSON seed under dir, named
// by content hash (repro-<12 hex>.json), with the full durable-write
// protocol. The file is in the same format as committed regression seeds
// and replays via LoadSpec + CheckSpec, which is what TestRegressionSeeds
// runs on every file in testdata/; no command has a replay flag.
func EmitReproducer(dir string, spec Spec) (string, error) {
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return "", err
	}
	blob = append(blob, '\n')
	sum := sha256.Sum256(blob)
	name := "repro-" + hex.EncodeToString(sum[:6]) + ".json"
	if err := resilience.WriteDurable(dir, name, blob); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// QuarantineEmitter returns a sweep failure hook that auto-emits a
// reproducer seed for every quarantined panic and every abandoned (hung
// past grace) cell — the failures worth replaying standalone. Transient
// timeouts and plain errors carry no seed; the manifest already names
// them. The emitted path lands in the failure's Repro field and hence in
// the manifest. logf may be nil.
func QuarantineEmitter(dir string, logf func(format string, args ...any)) func(*sweep.CellError) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return func(ce *sweep.CellError) {
		if ce.Spec == nil || dir == "" {
			return
		}
		if resilience.Kind(ce.Err) != "panic" && !abandoned(ce.Err) {
			return
		}
		spec, err := SpecFromConfig(*ce.Spec)
		if err != nil {
			logf("quarantine: cell %d: %v", ce.Index, err)
			return
		}
		note := fmt.Sprintf("auto-emitted reproducer: %v", ce.Err)
		if spec.Note != "" {
			note = spec.Note + "; " + note
		}
		spec.Note = note
		path, err := EmitReproducer(dir, spec)
		if err != nil {
			logf("quarantine: cell %d: emitting reproducer: %v", ce.Index, err)
			return
		}
		ce.Repro = path
		logf("quarantine: cell %d: reproducer %s", ce.Index, path)
	}
}

// abandoned reports whether err is a watchdog timeout whose cell ignored
// the interrupt — a deterministic hang, worth a reproducer.
func abandoned(err error) bool {
	var to *resilience.CellTimeout
	return errors.As(err, &to) && to.Abandoned
}
