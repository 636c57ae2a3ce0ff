package experiments_test

import (
	"reflect"
	"testing"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/olsr"
)

// TestEveryOptionHasAUser requires every field of the protocol Config
// structs to be listed with the experiment row or factory that gives it a
// non-default value, so that a new knob is a deliberate entry here rather
// than drift: a value nothing varies is a package constant, not a field.
// Where the off-default configurations can be built from here, the test
// also checks that one of them really moves the field.
func TestEveryOptionHasAUser(t *testing.T) {
	var ablated []any
	for _, v := range experiments.Variants() {
		c := core.DefaultConfig()
		v.Mutate(&c)
		ablated = append(ablated, c)
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
				moved = moved || !reflect.ValueOf(off).Field(i).Equal(def.Field(i))
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
