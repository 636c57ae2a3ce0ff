package experiments_test

import (
	"reflect"
	"testing"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
	"github.com/manetlab/ldr/internal/traffic"
)

// TestEveryOptionHasAUser requires every field of the protocol Config
// structs, of the structs that configure the layers under and beside the
// protocols, and of the sweep's execution options, to be listed with the experiment row, factory or
// production site that gives it a non-default value, so that a new knob
// is a deliberate entry here rather than drift: a value nothing varies is
// a package constant, not a field. Where the off-default configurations
// can be built from here, the test also checks that one of them really
// moves the field.
func TestEveryOptionHasAUser(t *testing.T) {
	var ablated []any
	for _, v := range experiments.Variants() {
		var sc scenario.Config
		v.Edit(&sc)
		if sc.LDRConfig != nil {
			ablated = append(ablated, *sc.LDRConfig)
		}
	}
	var radios []any
	for _, name := range scenario.Radios() {
		cls, err := scenario.RadioClasses(name)
		if err != nil {
			t.Fatal(err)
		}
		radios = append(radios, radio.Config{Classes: cls})
	}
	for _, c := range []struct {
		def   any
		off   []any // configurations some user runs; nil when a factory closure builds them
		users map[string]string
	}{
		{core.DefaultConfig(), ablated, map[string]string{
			"MultipleRREPs":   "ablation row no-multi-rrep",
			"ReducedDistance": "ablation row no-reduced-dist",
			"MinLifetime":     "ablation row no-min-lifetime",
			"OptimalTTL":      "ablation row no-optimal-ttl",
			"ResetLeg":        "ablation rows no-reset-leg, leg-dies",
		}},
		{dsr.DefaultConfig(), []any{dsr.Draft7Config()}, map[string]string{
			"DraftVariant": "Fig. 6: scenario.Factory(DSR7) runs Draft7Config",
			"MaxSalvage":   "Fig. 6: Draft7Config salvages",
			"BackoffBase":  "Fig. 6: Draft7Config backs off from 1 s",
		}},
		{olsr.DefaultConfig(), nil, map[string]string{
			"JitterQueue": "ablation row olsr-nojitter: scenario.Factory(OLSRJ) turns it off",
		}},
		{mac.DefaultConfig(), nil, map[string]string{
			"RTSCTSEnabled": "ablation row ldr+rtscts: scenario.BuildInstrumented copies Config.RTSCTS",
		}},
		{radio.DefaultConfig(), radios, map[string]string{
			"Classes": "-radio mixed|asym: scenario.BuildInstrumented passes RadioClasses",
		}},
		{traffic.Config{}, nil, map[string]string{
			"Flows": "the 10- and 30-flow tables: scenario.BuildInstrumented copies Config.Flows",
			"Stop":  "-simtime: scenario.BuildInstrumented copies Config.SimTime",
		}},
		{mobility.WaypointConfig{}, nil, map[string]string{
			"Terrain":  "50- and 100-node terrains: scenario.buildMobility",
			"MinSpeed": "scenario.buildMobility copies Config.MinSpeed (conformance.Spec draws it)",
			"MaxSpeed": "ldrsim -maxspeed: scenario.buildMobility",
			"Pause":    "the pause-time sweep: scenario.buildMobility",
		}},
		{mobility.ManhattanConfig{}, nil, map[string]string{
			"Terrain":  "50- and 100-node terrains: scenario.buildMobility",
			"MinSpeed": "scenario.buildMobility copies Config.MinSpeed (conformance.Spec draws it)",
			"MaxSpeed": "ldrsim -maxspeed: scenario.buildMobility",
			"Pause":    "the pause-time sweep: scenario.buildMobility",
		}},
		{mobility.GaussMarkovConfig{}, nil, map[string]string{
			"Terrain":   "50- and 100-node terrains: scenario.buildMobility",
			"MeanSpeed": "scenario.buildMobility: the middle of Config.MinSpeed and MaxSpeed",
			"MaxSpeed":  "ldrsim -maxspeed: scenario.buildMobility",
		}},
		{fault.AuditConfig{}, nil, map[string]string{
			"Cadence": "conformance.Spec.AuditMS: scenario.BuildInstrumented copies Config.AuditCadence",
			"Until":   "-simtime: scenario.BuildInstrumented; an hour in benchmark/drivers.go",
		}},
		{sweep.ExecOptions{}, nil, map[string]string{
			"Journal":     "-journal: cli.Experiment.open",
			"Scope":       "each table's scope: experiments/table.go, and Registry's chaos and adversary",
			"CellTimeout": "-cell-timeout: cli.Experiment.open",
			"KeepGoing":   "-keep-going: cli.Experiment.open",
			"OnFailure":   "-journal: cli.Experiment.open installs conformance.QuarantineEmitter",
			"Control":     "ldrsim's ^C: cmd/ldrsim binds its Control to every cell",
		}},
		{adversary.Plan{}, nil, map[string]string{
			"Name":  "adversary/profiles.go: the profile's name",
			"Nodes": "explicit victims, TestExplicitVictims only — decide with the script format",
			"Count": "adversary/profiles.go: a tenth of the nodes",
			"At":    "adversary/profiles.go: a tenth of the run",
		}},
	} {
		def := reflect.ValueOf(c.def)
		typ := def.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if c.users[name] == "" {
				t.Errorf("%s.%s: no experiment row or factory is listed as setting it off-default; make it a constant or list its user", typ, name)
				continue
			}
			moved := c.off == nil
			for _, off := range c.off {
				moved = moved || !reflect.DeepEqual(reflect.ValueOf(off).Field(i).Interface(), def.Field(i).Interface())
			}
			if !moved {
				t.Errorf("%s.%s: listed user %q does not change it from the default", typ, name, c.users[name])
			}
		}
		for name := range c.users {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%s: listed field %s does not exist", typ, name)
			}
		}
	}
}
