package modelcheck

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
	w, err := newWorld(sc, new(sync.Mutex))
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

func usedBy(trace []Action) used {
	var u used
	for _, a := range trace {
		u = u.after(a)
	}
	return u
}

// sweepScenarios is ldr and aodv on every connected 3- and 4-node graph.
func sweepScenarios(t *testing.T) []*Scenario {
	graphs, err := SweepGraphs(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Scenario
	for _, proto := range []string{"ldr", "aodv"} {
		for _, g := range graphs {
			out = append(out, &Scenario{Graph: g, Protocol: proto, Seed: 1, Flows: DefaultFlows(g)})
		}
	}
	return out
}

// TestSnapshotEqualsReplay is the restore ≡ replay invariant: a world the
// cursor brought to a trace — restoring the saved records of the nodes and
// links written since, applying the rest, after any amount of wandering
// through other branches on the same world — is indistinguishable from a
// fresh world that replayed the trace, and from a world that got there on
// whole-world snapshots (reference_test.go): the same serialization, the
// same key, whether taken through the saved records' caches or from the
// whole live world, the same enabled actions and routing tables, and an
// equal full save, which covers what the serialization leaves out. Every
// queued item carries the hash of its encoding as it stands. The walk
// takes every state's key, so every record's caches are full by the time
// the record is saved over or shared.
func TestSnapshotEqualsReplay(t *testing.T) {
	fields := modelStateFields(t)
	const walks, steps = 12, 10
	for _, sc := range sweepScenarios(t) {
		g := sc.Graph
		t.Run(sc.Protocol+"/"+g.Name, func(t *testing.T) {
			cur, err := newCursor(sc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefCursor(sc)
			if err != nil {
				t.Fatal(err)
			}
			same := func(trace []Action) {
				t.Helper()
				rem := walkOpts.remaining(usedBy(trace))
				sameWorld(t, fields, rem, cur, materialize(t, sc, trace), trace, "replay")
				sameWorld(t, fields, rem, cur, ref.w, trace, "whole-world restore")
				if t.Failed() {
					t.FailNow()
				}
			}
			rnd := rand.New(rand.NewSource(int64(len(g.Edges))*31 + int64(g.N)))
			var seen [][]Action // traces visited so far, to wander back to
			for walk := 0; walk < walks; walk++ {
				var trace []Action
				for step := 0; step < steps; step++ {
					if len(seen) > 0 && rnd.Intn(3) == 0 {
						other := seen[rnd.Intn(len(seen))]
						cur.seek(other)
						ref.seek(other)
						same(other)
					}
					cur.seek(trace)
					ref.seek(trace)
					same(trace)
					acts := cur.w.enabled(nil, walkOpts.remaining(usedBy(trace)))
					if len(acts) == 0 {
						break
					}
					// One transition the way the search makes it: apply on
					// top of the sought state, look, go back.
					a := acts[rnd.Intn(len(acts))]
					trace = append(trace, a)
					cur.w.apply(a)
					ref.w.apply(a)
					same(trace)
					cur.back()
					ref.back()
					seen = append(seen, slices.Clone(trace))
				}
			}
		})
	}
}

// sameWorld compares the cursor's world with an oracle for the same trace:
// what the search observes (serialization, key, item hashes, enabled
// actions, tables), every saved field of the two live worlds, and their
// full saves.
func sameWorld(t *testing.T, fields map[reflect.Type]fieldLists, rem budgets, cur *cursor, want *world, trace []Action, oracle string) {
	t.Helper()
	got := cur.w
	if gb, wb := refEncode(got, rem), refEncode(want, rem); !bytes.Equal(gb, wb) {
		t.Errorf("after %v: serialization %x, %s gives %x", trace, gb, oracle, wb)
	}
	gk := cur.key(rem)
	if wk := refKey(want, rem); gk != wk {
		t.Errorf("after %v: key %x through the saved records, %s gives %x", trace, gk, oracle, wk)
	}
	if lk := refKey(got, rem); gk != lk {
		t.Errorf("after %v: key %x through the saved records, the live world's is %x", trace, gk, lk)
	}
	for _, w := range []*world{got, want} {
		for li, q := range w.pending {
			for i, m := range q {
				if h := hashKey(new(encoder).encodeItem(nil, m)); m.hash != h {
					t.Errorf("after %v: item %d of link %d queued with hash %x, encodes to %x", trace, i, li, m.hash, h)
				}
			}
		}
	}
	if ga, wa := got.enabled(nil, rem), want.enabled(nil, rem); !slices.Equal(ga, wa) {
		t.Errorf("after %v: enabled %v, %s gives %v", trace, ga, oracle, wa)
	}
	gt, lt, wt := cur.tables(), got.tables(), want.tables()
	for i := range gt {
		gti := slices.Clone(gt[i]) // the cursor's own storage: leave its order alone
		sortTable(gti)
		sortTable(lt[i])
		sortTable(wt[i])
		if !slices.Equal(gti, wt[i]) || !slices.Equal(gti, lt[i]) {
			t.Errorf("after %v: node %d's table %v, live %v, %s gives %v", trace, i, gti, lt[i], oracle, wt[i])
		}
	}
	// The live objects, field by field over the saved lists: this does not
	// go through save, so it sees a field that save and restore both skip.
	diffs := diffSaved(nil, "world", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), fields)
	for i := range got.nw.Nodes {
		diffs = diffSaved(diffs, fmt.Sprintf("node[%d]", i), reflect.ValueOf(got.nw.Nodes[i]), reflect.ValueOf(want.nw.Nodes[i]), fields)
		diffs = diffSaved(diffs, fmt.Sprintf("proto[%d]", i), reflect.ValueOf(got.staters[i]), reflect.ValueOf(want.staters[i]), fields)
	}
	for _, d := range diffs {
		t.Errorf("after %v, against %s: %s", trace, oracle, d)
	}
	if !reflect.DeepEqual(got.save(nil), want.save(nil)) {
		t.Errorf("after %v: a full save differs from the one %s gives", trace, oracle)
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
	ldrSeen, avSeen := field(ldr, "reqSeen"), field(av, "reqSeen") // ondemand.Seen of each protocol's value type
	ldrSeenEntry, avSeenEntry := field(ldrSeen, "byOrigin").Elem().Elem(), field(avSeen, "byOrigin").Elem().Elem()
	node, limiter := reflect.TypeFor[routing.Node](), reflect.TypeFor[routing.RateLimiter]()
	return map[reflect.Type]fieldLists{
		ldr: {
			[]string{"ownSeq", "routes", "reqSeen", "Discoveries", "Limits"},
			[]string{"node", "cfg", "rreqPool", "rrepPool", "rerrPool", "rerrBuf"}},
		field(ldr, "routes").Elem(): { // core.entry; alts is deep-copied
			[]string{"known", "seq", "dist", "fd", "next", "valid", "expiry", "alts"}, nil},
		ldrSeen:      {[]string{"byOrigin", "sweepAt"}, nil},
		ldrSeenEntry: {[]string{"id", "expires", "val"}, nil},
		field(ldrSeenEntry, "val"): { // core.reqState; altHops is deep-copied
			[]string{"lastHop", "relayed", "relayedSeq", "relayedDist", "unicastFwd", "replied", "altHops"}, nil},
		av: {
			[]string{"ownSeq", "routes", "reqSeen", "Discoveries", "Limits"},
			[]string{"node", "rreqPool", "rrepPool", "rerrPool", "rerrBuf"}},
		avSeen:      {[]string{"byOrigin", "sweepAt"}, nil},
		avSeenEntry: {[]string{"id", "expires", "val"}, nil},
		field(av, "routes").Elem(): { // aodv.entry; precursors is deep-copied
			[]string{"seq", "haveSeq", "hops", "next", "valid", "expiry", "precursors"}, nil},
		reflect.TypeFor[ondemand.Discoveries](): {
			[]string{"Pending", "active", "nextID", "stopped"},
			[]string{"req"}},
		reflect.TypeFor[ondemand.Pending](): {
			[]string{"q"},
			[]string{"node"}},
		reflect.TypeFor[ondemand.Discovery](): {
			[]string{"ID", "TTL", "Retries", "timer"}, nil},
		reflect.TypeFor[ondemand.Limits](): {
			[]string{"rreq", "rerr"},
			[]string{"node"}},
		limiter: {
			[]string{"buckets"},
			[]string{"rate", "burst"}},
		field(limiter, "buckets").Elem(): { // routing.tokenBucket
			[]string{"tokens", "last"}, nil},
		node: {
			// The MAC is never reached under a ModelEnv; the collector is
			// written by the protocols and never read.
			[]string{"nextPktID", "down", "rng"},
			[]string{"id", "nodes", "sim", "mac", "col", "proto", "tracer", "dataFail", "recycler", "menv", "framePool", "nfPool", "pktPool"}},
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
			// nw and the per-interface views of its protocols are saved node by
			// node and protocol by protocol; micro is empty between actions;
			// actor is set by every apply before anything reads it; the dirty
			// sets say how the world differs from a saved state and are no
			// part of one; handlers is the exploration's lock; enc is scratch.
			[]string{"sc", "nbrs", "adj", "nw", "staters", "tablers", "vresetters", "micro", "actor", "dirtyNodes", "dirtyLinks", "handlers", "enc"}},
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
// warm, a state key costs no allocation — with control messages and data
// packets pending and routes installed, one action ahead of the sought
// state, so that one node is hashed as it stands and the others come
// from their records.
func TestEncoderKeyDoesNotAllocate(t *testing.T) {
	g, err := NamedTopology("ring4")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"ldr", "aodv"} {
		sc := &Scenario{Graph: g, Protocol: proto, Seed: 1, Flows: []Flow{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}}}
		cur, err := newCursor(sc)
		if err != nil {
			t.Fatal(err)
		}
		cur.seek([]Action{
			{Kind: ActOriginate, Flow: 0},
			{Kind: ActDeliver, From: 0, To: 1},
			{Kind: ActDeliver, From: 1, To: 2},
			{Kind: ActDeliver, From: 2, To: 1},
			{Kind: ActDeliver, From: 1, To: 0, Index: 1}, // past the relayed RREQ: the RREP
			{Kind: ActOriginate, Flow: 1},
		})
		cur.w.apply(Action{Kind: ActReset, Node: 3})
		var msgs, pkts int
		for _, q := range cur.w.pending {
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
		b := budgets{drops: 1}
		cur.key(b)
		if n := testing.AllocsPerRun(100, func() { cur.key(b) }); n != 0 {
			t.Errorf("%s: a warm key allocates %v times, want 0", proto, n)
		}
	}
}

// TestCheckLeavesNoParkedTimers: a worker's world lives for every
// transition the worker makes, so a timer left on a node's never-advanced
// simulator queue per discovery attempt would be a leak proportional to
// the exploration.
func TestCheckLeavesNoParkedTimers(t *testing.T) {
	g, _ := NamedTopology("line3")
	sc := &Scenario{Graph: g, Protocol: "ldr", Seed: 1, Flows: DefaultFlows(g)}
	cur, err := newCursor(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := explore(cur, Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1}.withDefaults(), 1, time.Now())
	if res.Violation != nil || res.Transitions == 0 {
		t.Fatalf("exploration: %d transitions, violation %v", res.Transitions, res.Violation)
	}
	if n := cur.w.nw.Sim.Pending(); n != 0 {
		t.Errorf("%d events on the simulator queue after %d transitions, want 0", n, res.Transitions)
	}
}

// actorOf is the node whose code an action runs, -1 for none, worked out
// from the action alone.
func actorOf(sc *Scenario, a Action) int {
	switch a.Kind {
	case ActDeliver:
		return int(a.To)
	case ActReset, ActResetVolatile:
		return int(a.Node)
	case ActOriginate:
		return int(sc.Flows[a.Flow].Src)
	}
	return -1
}

// TestActionTouchesOneNode is the locality the dirty-node save, restore
// and encoding rest on, and the commutation lemma a partial-order
// reduction would need: an action changes the state of the one node whose
// code it runs (deliver the receiver, reset and originate the node named,
// drop and dup none), the link it names, and that node's out-links —
// nothing else, by whole-world saves taken before and after — and the
// world's own record of what was written covers every change.
func TestActionTouchesOneNode(t *testing.T) {
	const walks, steps = 12, 10
	for _, sc := range sweepScenarios(t) {
		g := sc.Graph
		t.Run(sc.Protocol+"/"+g.Name, func(t *testing.T) {
			n := g.N
			rnd := rand.New(rand.NewSource(int64(len(g.Edges))*31 + int64(n)))
			for walk := 0; walk < walks; walk++ {
				w := materialize(t, sc, nil)
				var trace []Action
				for step := 0; step < steps; step++ {
					acts := w.enabled(nil, walkOpts.remaining(usedBy(trace)))
					if len(acts) == 0 {
						break
					}
					a := acts[rnd.Intn(len(acts))]
					trace = append(trace, a)
					before := w.save(nil)
					w.dirtyNodes, w.dirtyLinks = 0, 0
					w.apply(a)
					after := w.save(nil)

					actor := actorOf(sc, a)
					if w.actor != actor {
						t.Fatalf("after %v: the world recorded node %d as acting, want %d", trace, w.actor, actor)
					}
					for i := 0; i < n; i++ {
						changed := !reflect.DeepEqual(before.nodes[i], after.nodes[i]) || !reflect.DeepEqual(before.protos[i], after.protos[i])
						if changed && i != actor {
							t.Errorf("after %v: node %d's state changed, and node %d acted", trace, i, actor)
						}
						if changed && w.dirtyNodes&(1<<i) == 0 {
							t.Errorf("after %v: node %d's state changed and is not in the dirty set %b", trace, i, w.dirtyNodes)
						}
					}
					onLink := a.Kind == ActDeliver || a.Kind == ActDrop || a.Kind == ActDup
					for li := range before.pending {
						from, to := li/n, li%n
						changed := !reflect.DeepEqual(before.pending[li], after.pending[li])
						if changed && from != actor && !(onLink && from == int(a.From) && to == int(a.To)) {
							t.Errorf("after %v: link %d->%d changed, and node %d acted", trace, from, to, actor)
						}
						if changed && w.dirtyLinks&(1<<li) == 0 {
							t.Errorf("after %v: link %d->%d changed and is not in the dirty set %b", trace, from, to, w.dirtyLinks)
						}
					}
					if t.Failed() {
						t.FailNow()
					}
				}
			}
		})
	}
}
