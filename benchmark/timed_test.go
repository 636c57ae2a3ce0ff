package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// optionalInterfaces are the behaviours the node layer, fault injector,
// auditor and model checker discover by type assertion.
var optionalInterfaces = []reflect.Type{
	reflect.TypeFor[routing.DataFailureHandler](),
	reflect.TypeFor[routing.MessageRecycler](),
	reflect.TypeFor[routing.TableSnapshotter](),
	reflect.TypeFor[routing.TableAppender](),
	reflect.TypeFor[routing.VolatileResetter](),
	reflect.TypeFor[routing.ModelStater](),
	reflect.TypeFor[routing.Resetter](),
	reflect.TypeFor[routing.HeldDataWalker](),
	reflect.TypeFor[routing.HeldControlWalker](),
	reflect.TypeFor[scenario.SeqnoReporter](),
}

// smallCell is a 20-node, 10-second cell of the paper's 50-node terrain.
func smallCell(p scenario.ProtocolName) scenario.Config {
	cfg := scenario.Nodes50(p, 5, 0, 3)
	cfg.Nodes = 20
	cfg.SimTime = 10 * time.Second
	return cfg
}

// TestDecoratorIsTransparentToTypeAssertions: the decorator must implement
// an optional interface exactly when the protocol it wraps does; one it
// forgets silently disables a behaviour, one it adds invents one.
func TestDecoratorIsTransparentToTypeAssertions(t *testing.T) {
	for _, p := range scenario.AllProtocols {
		nw, _, err := scenario.Build(smallCell(p))
		if err != nil {
			t.Fatal(err)
		}
		inner := nw.Nodes[0].Protocol()
		outer, err := wrap(inner, &handlerStats{})
		if err != nil {
			t.Fatal(err)
		}
		for _, iface := range optionalInterfaces {
			in, out := reflect.TypeOf(inner).Implements(iface), reflect.TypeOf(outer).Implements(iface)
			if in != out {
				t.Errorf("%s: protocol implements %s = %v, decorator = %v", p, iface.Name(), in, out)
			}
		}
	}
}

// TestTracedCellEqualsUntraced: decorating the protocols and slicing the
// run must not change one simulated outcome — plain, and under the reboot
// profile with the auditor on, where crashes exercise the reset and table
// interfaces through the decorator.
func TestTracedCellEqualsUntraced(t *testing.T) {
	for _, p := range scenario.AllProtocols {
		for _, faulty := range []bool{false, true} {
			cfg := smallCell(p)
			if faulty {
				plan, err := fault.Profile("reboot", cfg.Nodes, cfg.SimTime)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FaultPlan = &plan
				cfg.AuditCadence = 100 * time.Millisecond
			}
			var digests [2]digester
			var calls uint64
			for i, ct := range []*cellTrace{nil, {}} {
				lc, err := buildCell(cfg, jitterFor(7, 0), ct)
				if err != nil {
					t.Fatal(err)
				}
				rec, _ := lc.run(nil)
				if why := rec.failure(cfg); why != "" {
					t.Errorf("%s faulty=%v: %s", p, faulty, why)
				}
				if faulty && rec.Faults.Crashes == 0 {
					t.Errorf("%s: the reboot profile crashed no node", p)
				}
				if err := digests[i].addCell(rec); err != nil {
					t.Fatal(err)
				}
				if ct != nil {
					calls = ct.h.ctl.calls + ct.h.data.calls + ct.h.orig.calls
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("%s faulty=%v: traced digest %s != untraced %s", p, faulty, digests[1].hex(), digests[0].hex())
			}
			if calls == 0 {
				t.Errorf("%s faulty=%v: the decorator saw no call", p, faulty)
			}
		}
	}
}
