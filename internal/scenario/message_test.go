package scenario_test

import (
	"reflect"
	"testing"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/routing"
)

// TestOnlyPointersAreMessages pins the one form of a control message:
// for each of the four protocols' message types T, *T is a
// routing.Message and T is not, so a handler, encoder or forger that
// switches on a value case cannot compile.
func TestOnlyPointersAreMessages(t *testing.T) {
	message := reflect.TypeFor[routing.Message]()
	for _, v := range []any{
		core.RREQ{}, core.RREP{}, core.RERR{},
		aodv.RREQ{}, aodv.RREP{}, aodv.RERR{},
		dsr.RREQ{}, dsr.RREP{}, dsr.RERR{},
		olsr.Hello{}, olsr.TC{},
	} {
		typ := reflect.TypeOf(v)
		if typ.Implements(message) {
			t.Errorf("%v is a routing.Message: a value would be a second form of the message", typ)
		}
		if !reflect.PointerTo(typ).Implements(message) {
			t.Errorf("*%v is not a routing.Message", typ)
		}
	}
}
