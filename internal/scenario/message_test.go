package scenario_test

import (
	"reflect"
	"slices"
	"strings"
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
	for _, l := range messageLayouts {
		typ := reflect.TypeOf(l.msg).Elem()
		if typ.Implements(message) {
			t.Errorf("%v is a routing.Message: a value would be a second form of the message", typ)
		}
		if !reflect.PointerTo(typ).Implements(message) {
			t.Errorf("*%v is not a routing.Message", typ)
		}
	}
}

// field is one field of a message layout: its name in the Go struct and
// its width in bytes on air. The bools LDR and AODV pack into one flag
// byte are a single field whose name joins theirs with "+".
type field struct {
	name  string
	width int
}

// layout is a control message's bytes on air: a type byte, the fixed
// fields, and, for a message that carries a list, a count header and one
// entry per element.
type layout struct {
	msg   routing.Message // a zero message of the type
	fixed []field
	list  string  // the repeated field; "" for a fixed-size message
	count int     // width of the list's count header
	entry []field // one list element; a bare node id is {"NodeID", 4}
}

// typeByte is the width of the type tag every message opens with.
const typeByte = 1

// messageLayouts lists the 11 message types with the field widths their
// Size() charges: node ids 4 bytes, LDR sequence numbers 8, AODV's 4,
// distances 4, hop counts and TTLs 1, DSR's route index 2, lifetimes 4
// (milliseconds), counts 2.
var messageLayouts = []layout{
	{msg: &core.RREQ{}, fixed: []field{{"HaveDstSeq+T+N+D", 1}, {"Dst", 4}, {"DstSeq", 8}, {"Origin", 4},
		{"OriginSeq", 8}, {"ReqID", 4}, {"FD", 4}, {"AnsDist", 4}, {"Dist", 4}, {"TTL", 1}}},
	{msg: &core.RREP{}, fixed: []field{{"N", 1}, {"Dst", 4}, {"DstSeq", 8}, {"Origin", 4}, {"ReqID", 4},
		{"Dist", 4}, {"Lifetime", 4}}},
	{msg: &core.RERR{}, list: "Unreachable", count: 2, entry: []field{{"Dst", 4}, {"Seq", 8}}},

	{msg: &aodv.RREQ{}, fixed: []field{{"UnknownSeq", 1}, {"Dst", 4}, {"DstSeq", 4}, {"Origin", 4},
		{"OriginSeq", 4}, {"ReqID", 4}, {"HopCount", 1}, {"TTL", 1}}},
	{msg: &aodv.RREP{}, fixed: []field{{"Dst", 4}, {"DstSeq", 4}, {"Origin", 4}, {"HopCount", 1}, {"Lifetime", 4}}},
	{msg: &aodv.RERR{}, list: "Unreachable", count: 2, entry: []field{{"Dst", 4}, {"Seq", 4}}},

	{msg: &dsr.RREQ{}, fixed: []field{{"Target", 4}, {"Origin", 4}, {"ReqID", 4}, {"TTL", 1}},
		list: "Route", count: 2, entry: []field{{"NodeID", 4}}},
	{msg: &dsr.RREP{}, fixed: []field{{"Origin", 4}, {"Target", 4}, {"ReqID", 4}, {"Index", 2}},
		list: "Route", count: 2, entry: []field{{"NodeID", 4}}},
	{msg: &dsr.RERR{}, fixed: []field{{"From", 4}, {"To", 4}, {"Origin", 4}, {"Index", 2}},
		list: "Route", count: 2, entry: []field{{"NodeID", 4}}},

	{msg: &olsr.Hello{}, fixed: []field{{"Origin", 4}},
		list: "Neighbors", count: 2, entry: []field{{"ID", 4}, {"Code", 1}}},
	{msg: &olsr.TC{}, fixed: []field{{"Origin", 4}, {"Seq", 2}, {"ANSN", 2}, {"TTL", 1}},
		list: "Selectors", count: 2, entry: []field{{"NodeID", 4}}},
}

// TestMessageLayouts pins what a control message costs on air, which is
// what MAC airtime reads: every struct field is in its type's layout (so
// a field added to a message must be paid for), and Size() is the
// layout's sum with 0, 1 and 7 list entries.
func TestMessageLayouts(t *testing.T) {
	for _, l := range messageLayouts {
		typ := reflect.TypeOf(l.msg).Elem()
		t.Run(typ.String(), func(t *testing.T) {
			want := layoutNames(l.fixed)
			if l.list != "" {
				want = append(want, l.list)
				slices.Sort(want)
			}
			if got := structNames(typ); !slices.Equal(got, want) {
				t.Errorf("struct fields %v, layout %v", got, want)
			}
			if l.list != "" {
				f, _ := typ.FieldByName(l.list)
				elem := f.Type.Elem()
				got := []string{elem.Name()}
				if elem.Kind() == reflect.Struct {
					got = structNames(elem)
				}
				if want := layoutNames(l.entry); !slices.Equal(got, want) {
					t.Errorf("%s entry fields %v, layout %v", l.list, got, want)
				}
			}
			for _, n := range []int{0, 1, 7} {
				m := reflect.New(typ)
				want := typeByte + widths(l.fixed)
				if l.list != "" {
					list := m.Elem().FieldByName(l.list)
					list.Set(reflect.MakeSlice(list.Type(), n, n))
					want += l.count + n*widths(l.entry)
				}
				if got := m.Interface().(routing.Message).Size(); got != want {
					t.Errorf("Size() with %d entries = %d, layout says %d", n, got, want)
				}
			}
		})
	}
}

// structNames returns a struct type's field names, sorted.
func structNames(typ reflect.Type) []string {
	var names []string
	for i := range typ.NumField() {
		names = append(names, typ.Field(i).Name)
	}
	slices.Sort(names)
	return names
}

// layoutNames returns the struct field names a layout covers, sorted.
func layoutNames(fields []field) []string {
	var names []string
	for _, f := range fields {
		names = append(names, strings.Split(f.name, "+")...)
	}
	slices.Sort(names)
	return names
}

func widths(fields []field) int {
	sum := 0
	for _, f := range fields {
		sum += f.width
	}
	return sum
}
