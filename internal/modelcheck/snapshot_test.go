package modelcheck

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

// materialize builds the world at the end of trace from nothing: a fresh
// world and the whole trace replayed. It is the reference the in-place
// save/restore is checked against, and exists only here.
func materialize(t testing.TB, sc *Scenario, trace []Action) *world {
	t.Helper()
	w, err := newWorld(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range trace {
		w.apply(a)
	}
	return w
}

// walkOpts turns every fault-flavoured action on.
var walkOpts = Options{MaxDrops: 1, MaxDups: 1, MaxResets: 1, MaxVResets: 1}

// TestSnapshotEqualsReplay is the restore ≡ replay invariant: a world the
// cursor brought to a trace — restoring saved states, applying the rest,
// after any amount of wandering through other branches on the same world
// — is indistinguishable from a fresh world that replayed the trace: same
// canonical key, same enabled actions, same routing tables, and an equal
// full save, which covers what the key leaves out.
func TestSnapshotEqualsReplay(t *testing.T) {
	graphs, err := SweepGraphs(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	fields := modelStateFields(t)
	const walks, steps = 12, 10
	for _, proto := range []string{"ldr", "aodv"} {
		for _, g := range graphs {
			t.Run(proto+"/"+g.Name, func(t *testing.T) {
				sc := &Scenario{Graph: g, Protocol: proto, Seed: 1, Flows: DefaultFlows(g)}
				cur, err := newCursor(sc)
				if err != nil {
					t.Fatal(err)
				}
				enc := newEncoder(g.N, automorphisms(g, nil))
				rnd := rand.New(rand.NewSource(int64(len(g.Edges))*31 + int64(g.N)))
				var seen [][]Action // traces visited so far, to wander back to
				for walk := 0; walk < walks; walk++ {
					var trace []Action
					for step := 0; step < steps; step++ {
						if len(seen) > 0 && rnd.Intn(3) == 0 {
							cur.seek(seen[rnd.Intn(len(seen))])
						}
						cur.seek(trace)
						rem := walkOpts.remaining(countUsed(trace))
						sameWorld(t, enc, fields, rem, cur.w, materialize(t, sc, trace), trace)
						acts := cur.w.enabled(nil, rem)
						if len(acts) == 0 {
							break
						}
						// One transition the way the search makes it: apply on
						// top of the sought state, look, go back.
						a := acts[rnd.Intn(len(acts))]
						trace = append(trace, a)
						cur.w.apply(a)
						sameWorld(t, enc, fields, walkOpts.remaining(countUsed(trace)), cur.w, materialize(t, sc, trace), trace)
						cur.back()
						if t.Failed() {
							t.FailNow()
						}
						seen = append(seen, slices.Clone(trace))
					}
				}
			})
		}
	}
}

// sameWorld compares a world reached by save/restore with the replayed
// oracle: what the search observes (key, enabled actions, tables), every
// saved field of the two live worlds, and their full saves.
func sameWorld(t *testing.T, enc *encoder, fields map[reflect.Type]fieldLists, rem budgets, got, want *world, trace []Action) {
	t.Helper()
	if gk, wk := enc.key(got, rem), enc.key(want, rem); gk != wk {
		t.Errorf("after %v: canonical key %x, replay gives %x", trace, gk, wk)
	}
	if ga, wa := got.enabled(nil, rem), want.enabled(nil, rem); !slices.Equal(ga, wa) {
		t.Errorf("after %v: enabled %v, replay gives %v", trace, ga, wa)
	}
	gt, wt := got.tables(nil), want.tables(nil)
	for i := range gt {
		sortTable(gt[i])
		sortTable(wt[i])
	}
	if !reflect.DeepEqual(gt, wt) {
		t.Errorf("after %v: tables %v, replay gives %v", trace, gt, wt)
	}
	// The live objects, field by field over the saved lists: this does not
	// go through save, so it sees a field that save and restore both skip.
	diffs := diffSaved(nil, "world", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), fields)
	for i := range got.nw.Nodes {
		diffs = diffSaved(diffs, fmt.Sprintf("node[%d]", i), reflect.ValueOf(got.nw.Nodes[i]), reflect.ValueOf(want.nw.Nodes[i]), fields)
		diffs = diffSaved(diffs, fmt.Sprintf("proto[%d]", i), reflect.ValueOf(got.staters[i]), reflect.ValueOf(want.staters[i]), fields)
	}
	for _, d := range diffs {
		t.Errorf("after %v: %s", trace, d)
	}
	if !reflect.DeepEqual(got.save(nil), want.save(nil)) {
		t.Errorf("after %v: a full save differs from the replayed world's", trace)
	}
}

func sortTable(tab []routing.RouteEntry) {
	slices.SortFunc(tab, func(a, b routing.RouteEntry) int { return cmp.Compare(a.Dst, b.Dst) })
}

// diffSaved appends to diffs where a and b differ, descending through
// pointers, interfaces, slices, maps and structs; of a struct type listed
// in fields only the saved fields are compared. It reads unexported fields,
// which reflect.DeepEqual on a selection of them cannot.
func diffSaved(diffs []string, path string, a, b reflect.Value, fields map[reflect.Type]fieldLists) []string {
	differ := func(format string, args ...any) []string {
		return append(diffs, path+": "+fmt.Sprintf(format, args...))
	}
	if a.Type() != b.Type() {
		return differ("type %s, replay gives %s", a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ("nil is %v, replay gives %v", a.IsNil(), b.IsNil())
			}
			return diffs
		}
		return diffSaved(diffs, path, a.Elem(), b.Elem(), fields)
	case reflect.Struct:
		lists, listed := fields[a.Type()]
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if !listed || slices.Contains(lists.saved, name) {
				diffs = diffSaved(diffs, path+"."+name, a.Field(i), b.Field(i), fields)
			}
		}
		return diffs
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return differ("length %d, replay gives %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			diffs = diffSaved(diffs, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), fields)
		}
		return diffs
	case reflect.Map:
		if a.Len() != b.Len() {
			return differ("%d keys, replay gives %d", a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return differ("key %v, which replay does not give", it.Key())
			}
			diffs = diffSaved(diffs, fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv, fields)
		}
		return diffs
	case reflect.Func:
		return diffs // microtask closures; none is queued between actions
	}
	if !a.Equal(b) {
		return differ("%v, replay gives %v", a, b)
	}
	return diffs
}

// fieldLists sorts a struct type's fields into those its model-state save
// and restore copy, and those exempt because New fixes them for good or
// because they are free lists or scratch.
type fieldLists struct{ saved, exempt []string }

// modelStateFields is the ledger of every type a snapshot has to cover.
func modelStateFields(t *testing.T) map[reflect.Type]fieldLists {
	field := func(typ reflect.Type, name string) reflect.Type {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%s has no field %s", typ, name)
		}
		return f.Type
	}
	ldr, av := reflect.TypeFor[core.LDR](), reflect.TypeFor[aodv.AODV]()
	node, limiter := reflect.TypeFor[routing.Node](), reflect.TypeFor[routing.RateLimiter]()
	return map[reflect.Type]fieldLists{
		ldr: {
			[]string{"ownSeq", "routes", "reqSeen", "Discoveries", "Limits"},
			[]string{"node", "cfg", "rreqPool", "rrepPool", "rerrPool", "rerrBuf", "enc"}},
		field(ldr, "routes").Elem().Elem(): { // core.entry; alts is deep-copied
			[]string{"seq", "dist", "fd", "next", "valid", "expiry", "alts"}, nil},
		field(ldr, "reqSeen").Elem().Elem(): { // core.reqState; altHops is deep-copied
			[]string{"lastHop", "expires", "relayed", "relayedSeq", "relayedDist", "unicastFwd", "replied", "altHops"}, nil},
		av: {
			[]string{"ownSeq", "routes", "reqSeen", "Discoveries", "Limits"},
			[]string{"node", "rreqPool", "rrepPool", "rerrPool", "rerrBuf", "enc"}},
		field(av, "routes").Elem().Elem(): { // aodv.entry; precursors is deep-copied
			[]string{"seq", "haveSeq", "hops", "next", "valid", "expiry", "precursors"}, nil},
		reflect.TypeFor[ondemand.Discoveries](): {
			[]string{"Pending", "active", "nextID", "stopped"},
			[]string{"req"}},
		reflect.TypeFor[ondemand.Pending](): {
			[]string{"q"},
			[]string{"node", "rows"}},
		reflect.TypeFor[ondemand.Discovery](): {
			[]string{"ID", "TTL", "Retries", "timer"}, nil},
		reflect.TypeFor[ondemand.Limits](): {
			[]string{"rreq", "rerr"},
			[]string{"node"}},
		limiter: {
			[]string{"buckets"},
			[]string{"rate", "burst"}},
		field(limiter, "buckets").Elem().Elem(): { // routing.tokenBucket
			[]string{"tokens", "last"}, nil},
		node: {
			// The MAC is never reached under a ModelEnv; the collector is
			// written by the protocols and never read.
			[]string{"nextPktID", "down", "rng"},
			[]string{"id", "sim", "mac", "col", "proto", "tracer", "dataFail", "recycler", "menv", "framePool", "nfPool", "pktPool"}},
		field(node, "rng").Elem(): { // rng.Source; draws is a diagnostic shared by the whole split tree
			[]string{"s"},
			[]string{"seed", "draws"}},
		reflect.TypeFor[routing.DataPacket](): {
			// Copied whole by CopyDataPacket, except the pool bookkeeping,
			// which belongs to each copy's own object.
			[]string{"Src", "Dst", "ID", "Bytes", "TTL", "SentAt", "SourceRoute", "SRIndex", "Salvaged", "Retried"},
			[]string{"refs", "pooled"}},
		reflect.TypeFor[world](): {
			[]string{"pending", "slot", "curRoot", "nextFlow", "delLog", "dropLog", "lostUnicasts"},
			// nw and staters are saved node by node and protocol by protocol;
			// micro is empty between actions.
			[]string{"sc", "nbrs", "adj", "nw", "staters", "micro"}},
	}
}

// TestModelStateFieldCoverage requires every field of every type a
// snapshot has to cover to be listed in modelStateFields as saved or as
// exempt, so that a field added later cannot silently carry one explored
// branch's value into the next. A new field goes into saved once the
// type's save and restore copy it (TestSnapshotEqualsReplay compares
// exactly the saved fields of the live objects, so it then checks that
// they do), or into exempt with the reason it cannot leak.
func TestModelStateFieldCoverage(t *testing.T) {
	for typ, lists := range modelStateFields(t) {
		listed := map[string]bool{}
		for _, name := range append(slices.Clone(lists.saved), lists.exempt...) {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%s: listed field %s does not exist", typ, name)
			}
			listed[name] = true
		}
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; !listed[name] {
				t.Errorf("%s: field %s is neither saved by the type's model-state save/restore nor listed as exempt", typ, name)
			}
		}
	}
}

// TestEncoderKeyDoesNotAllocate guards the encoder's scratch reuse: once
// warm, a state key costs no allocation — on a graph with a non-trivial
// automorphism group, with control messages and data packets pending and
// routes installed.
func TestEncoderKeyDoesNotAllocate(t *testing.T) {
	g, err := NamedTopology("ring4")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"ldr", "aodv"} {
		sc := &Scenario{Graph: g, Protocol: proto, Seed: 1, Flows: []Flow{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}}}
		w := materialize(t, sc, []Action{
			{Kind: ActOriginate, Flow: 0},
			{Kind: ActDeliver, From: 0, To: 1},
			{Kind: ActDeliver, From: 1, To: 2},
			{Kind: ActDeliver, From: 2, To: 1},
			{Kind: ActDeliver, From: 1, To: 0, Index: 1}, // past the relayed RREQ: the RREP
			{Kind: ActOriginate, Flow: 1},
			{Kind: ActReset, Node: 3},
		})
		var msgs, pkts int
		for _, q := range w.pending {
			for _, m := range q {
				if m.pkt != nil {
					pkts++
				} else {
					msgs++
				}
			}
		}
		if msgs == 0 || pkts == 0 {
			t.Fatalf("%s: the state should have both kinds of pending item, has %d messages and %d packets", proto, msgs, pkts)
		}
		enc := newEncoder(g.N, automorphisms(g, []int{0, 2}))
		if len(enc.autos) < 2 {
			t.Fatalf("ring4 with 0 and 2 pinned should keep the 1<->3 swap, has %d automorphisms", len(enc.autos))
		}
		b := budgets{drops: 1}
		enc.key(w, b)
		if n := testing.AllocsPerRun(100, func() { enc.key(w, b) }); n != 0 {
			t.Errorf("%s: a warm encoder.key allocates %v times, want 0", proto, n)
		}
	}
}

// TestCheckLeavesNoParkedTimers: the one world of an exploration lives
// for every transition of it, so a timer left on a node's never-advanced
// simulator queue per discovery attempt would be a leak proportional to
// the exploration.
func TestCheckLeavesNoParkedTimers(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1, Flows: DefaultFlows(g)}
	cur, err := newCursor(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := explore(cur, Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1}.withDefaults(), time.Now())
	if res.Violation != nil || res.Transitions == 0 {
		t.Fatalf("exploration: %d transitions, violation %v", res.Transitions, res.Violation)
	}
	if n := cur.w.nw.Sim.Pending(); n != 0 {
		t.Errorf("%d events on the simulator queue after %d transitions, want 0", n, res.Transitions)
	}
}
