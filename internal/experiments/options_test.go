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
	"github.com/manetlab/ldr/internal/traffic"
)

// TestEveryOptionHasAUser requires every field of the protocol Config
// structs, and of the structs that configure the layers under and beside
// the protocols, to be listed with the experiment row, factory or
// production site that gives it a non-default value, so that a new knob
// is a deliberate entry here rather than drift: a value nothing varies is
// a package constant, not a field. Where the off-default configurations
// can be built from here, the test also checks that one of them really
// moves the field.
func TestEveryOptionHasAUser(t *testing.T) {
	var ablated []any
	for _, v := range experiments.Variants() {
		c := core.DefaultConfig()
		v.Mutate(&c)
		ablated = append(ablated, c)
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
			"TTLStart":        "ablation row no-ring",
			"MultipleRREPs":   "ablation row no-multi-rrep",
			"RequestAsError":  "ablation row no-req-as-err",
			"ReducedDistance": "ablation row no-reduced-dist",
			"MinLifetime":     "ablation row no-min-lifetime",
			"OptimalTTL":      "ablation rows no-optimal-ttl, no-ring",
			"Multipath":       "ablation row ldr+multipath",
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
			"Pattern": "-traffic bursty|reqresp: scenario.BuildInstrumented copies Config.TrafficPattern",
			"Flows":   "the 10- and 30-flow tables: scenario.BuildInstrumented copies Config.Flows",
			"Stop":    "-simtime: scenario.BuildInstrumented copies Config.SimTime",
		}},
		{mobility.WaypointConfig{}, nil, map[string]string{
			"Terrain":  "50- and 100-node terrains: scenario.buildMovement",
			"MinSpeed": "scenario.buildMovement copies Config.MinSpeed (conformance.Spec draws it)",
			"MaxSpeed": "ldrsim -maxspeed: scenario.buildMovement",
			"Pause":    "the pause-time sweep: scenario.buildMovement",
		}},
		{mobility.ManhattanConfig{}, nil, map[string]string{
			"Terrain":  "50- and 100-node terrains: scenario.buildMovement",
			"MinSpeed": "scenario.buildMovement copies Config.MinSpeed (conformance.Spec draws it)",
			"MaxSpeed": "ldrsim -maxspeed: scenario.buildMovement",
			"Pause":    "the pause-time sweep: scenario.buildMovement",
		}},
		{mobility.GaussMarkovConfig{}, nil, map[string]string{
			"Terrain":   "50- and 100-node terrains: scenario.buildMovement",
			"MeanSpeed": "scenario.buildMovement: the middle of Config.MinSpeed and MaxSpeed",
			"MaxSpeed":  "ldrsim -maxspeed: scenario.buildMovement",
		}},
		{fault.AuditConfig{}, nil, map[string]string{
			"Cadence": "ldrchaos -audit, conformance.Spec.AuditMS: scenario.BuildInstrumented copies Config.AuditCadence",
			"Until":   "-simtime: scenario.BuildInstrumented; an hour in benchmark/drivers.go",
		}},
		{adversary.Compromise{}, nil, map[string]string{
			"Behavior":    "adversary/profiles.go: one per profile",
			"Nodes":       "explicit victims, TestExplicitVictims only — decide with the script format",
			"Count":       "adversary/profiles.go: a tenth of the nodes",
			"At":          "adversary/profiles.go: a tenth of the run, a fifth for byzantine's storm",
			"PerFlow":     "nobody — its salt is the first draw of every wrapper's stream and adversary/testdata/aodv-seqno-loop.json stops looping without it; delete both with a re-searched seed",
			"ReplayEvery": "adversary/profiles.go: replay scales it with the run",
			"ReplayAge":   "adversary/profiles.go: replay scales it with the run",
			"StormEvery":  "adversary/profiles.go: storm and byzantine scale it with the run",
			"StormBurst":  "adversary/profiles.go: storm 8, byzantine 4",
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
