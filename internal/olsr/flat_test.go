package olsr

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// listener is the second node of a differential rig: it sits in radio
// range of the instance under test, sends nothing, and records every
// control message that instance emits, rendered while the pooled message
// is still valid.
type listener struct{ heard []string }

func (*listener) Start()                                         {}
func (*listener) Stop()                                          {}
func (*listener) Originate(*routing.DataPacket)                  {}
func (*listener) HandleData(routing.NodeID, *routing.DataPacket) {}
func (l *listener) HandleControl(_ routing.NodeID, msg routing.Message) {
	switch m := msg.(type) {
	case *Hello:
		l.heard = append(l.heard, fmt.Sprintf("%+v", *m))
	case *TC:
		l.heard = append(l.heard, fmt.Sprintf("%+v", *m))
	}
}

// rig builds a two-node network from a fixed seed: node 0 runs the
// protocol mk returns, node 1 is the listener. Two rigs built alike draw
// the same timer phases, so their periodic emissions and sweeps fire at
// the same instants.
func rig(mk func(*routing.Node) routing.Protocol) (*routing.Network, *listener) {
	tap := &listener{}
	nw := routing.NewNetwork(2, mobility.Line(2, 100), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 0 {
				return mk(n)
			}
			return tap
		})
	nw.Start()
	return nw, tap
}

// driveBoth interprets data as a script — HELLO and TC arrivals (neighbor
// and selector lists drawn byte by byte, so unsorted, with repeats and
// with our own id in them), clock advances short of and across every
// holding time, data packets whose MAC failure drives linkFailure, and
// crash/reboot — and plays it to the slice-based OLSR and to the map
// reference, each node 0 of its own rig. After every step the two must
// agree on dirty, ansn, msgSeq, the selector count, the MPR set, every stored tuple and route
// (tuples) and everything emitted; on steps whose opcode has the top bit set, also on
// RouteTo for every id and on AppendTable, which recompute as a side
// effect — leaving the other steps to check that a table nobody read is
// stale in the same way on both sides. The bit rows and expiry bounds
// must also keep their promises after every step (checkBounds).
//
// The ids in play are 0–9 and 60–69, so a bit row spans two words; 0 is
// the instance under test. The rig has two nodes, so the rows start one
// word wide and grow widens them once an id of 64 or more arrives.
func driveBoth(t testing.TB, data []byte) {
	const span, top = 20, 69 // ids drawn; the largest
	wide := func(b byte) routing.NodeID {
		if b >= 10 {
			return routing.NodeID(b) + 50
		}
		return routing.NodeID(b)
	}
	var flat *OLSR
	var ref *refOLSR
	fnw, ftap := rig(func(n *routing.Node) routing.Protocol {
		flat = New(n, Config{JitterQueue: false})
		return flat
	})
	rnw, rtap := rig(func(n *routing.Node) routing.Protocol {
		ref = newRef(n)
		return ref
	})

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ansns := [...]uint16{0, 1, 2, 3, 32767, 32768, 65535}
	// Mostly short advances, so state builds up; now and then one that
	// lands exactly on a holding time (expiry == now, between two sweeps)
	// or just past it.
	short := [...]time.Duration{
		10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
		700 * time.Millisecond, time.Second, 2 * time.Second, 2500 * time.Millisecond,
	}
	long := [...]time.Duration{
		4 * time.Second, neighborHold, neighborHold + time.Second, topologyHold, topologyHold + time.Second,
		dupHold, dupHold + time.Second,
	}
	// id draws a node id, ours (0) more often than the others so that links
	// turn symmetric and selector lists name us.
	id := func() routing.NodeID {
		if b := next(); b < 224 {
			return wide(b % span)
		}
		return 0
	}

	for step := 0; len(data) > 0; step++ {
		op := next()
		var desc func() string // what the step did, for a failure
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 6:
			from := wide(1 + next()%(span-1))
			h := &Hello{Origin: from}
			for n := next() % 7; n > 0; n-- {
				h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: id(), Code: LinkCode(1 + next()%3)})
			}
			desc = func() string { return fmt.Sprintf("hello from %d: %+v", from, *h) }
			flat.HandleControl(from, h)
			ref.HandleControl(from, h)
		case 7, 8, 9, 10:
			from := wide(1 + next()%(span-1))
			b := next()
			tc := &TC{Origin: id(), Seq: uint16(b % 8), ANSN: ansns[int(b/8)%len(ansns)], TTL: 1 + int(b/64)}
			for n := next() % 6; n > 0; n-- {
				tc.Selectors = append(tc.Selectors, id())
			}
			desc = func() string { return fmt.Sprintf("tc from %d: %+v", from, *tc) }
			flat.HandleControl(from, tc)
			ref.HandleControl(from, tc)
		case 11, 12, 13:
			d := short[next()%byte(len(short))]
			if b := next(); b >= 200 {
				d = long[b%byte(len(long))]
			}
			desc = func() string { return fmt.Sprintf("advance %v", d) }
			fnw.Sim.Run(fnw.Sim.Now() + d)
			rnw.Sim.Run(rnw.Sim.Now() + d)
		case 14:
			dst := id()
			desc = func() string { return fmt.Sprintf("data to %d", dst) }
			fnw.Nodes[0].OriginateData(dst, 64)
			rnw.Nodes[0].OriginateData(dst, 64)
		case 15:
			if next()%4 != 0 {
				continue
			}
			desc = func() string { return "reset+start" }
			flat.Reset()
			flat.Start()
			ref.Reset()
			ref.Start()
		}

		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s = %v, reference %v", step, desc(), what, got, want)
		}
		if flat.dirty != ref.dirty {
			fail("dirty", flat.dirty, ref.dirty)
		}
		if got, want := [3]int{int(flat.ansn), int(flat.msgSeq), flat.nSel}, [3]int{int(ref.ansn), int(ref.msgSeq), len(ref.selectors)}; got != want {
			fail("(ansn, msgSeq, selectors)", got, want)
		}
		if got, want := flat.MPRs(), ref.MPRs(); !slices.Equal(got, want) {
			fail("MPRs", got, want)
		}
		if err := checkBounds(flat, fnw.Sim.Now(), flat.sweeper.Time()-time.Second); err != nil {
			t.Fatalf("step %d (%s): %v", step, desc(), err)
		}
		if !slices.Equal(ftap.heard, rtap.heard) {
			fail("emitted", ftap.heard, rtap.heard)
		}
		ftap.heard, rtap.heard = ftap.heard[:0], rtap.heard[:0]
		if got, want := tuples(flat), refTuples(ref); !slices.Equal(got, want) {
			fail("link state", got, want)
		}
		if op < 128 {
			continue
		}
		for id := routing.NodeID(-1); id < top+2; id++ {
			gn, gh, gok := flat.RouteTo(id)
			wn, wh, wok := ref.RouteTo(id)
			if gn != wn || gh != wh || gok != wok {
				fail(fmt.Sprintf("RouteTo(%d)", id), []any{gn, gh, gok}, []any{wn, wh, wok})
			}
		}
		if got, want := flat.AppendTable(nil), ref.AppendTable(nil); !slices.Equal(got, want) {
			fail("AppendTable", got, want)
		}
	}

	// The data plane ran through the real MAC on both sides: what was sent,
	// retried over an alternative and dropped must add up the same.
	got, _ := json.Marshal(fnw.Collector)
	want, _ := json.Marshal(rnw.Collector)
	if string(got) != string(want) {
		t.Fatalf("collectors differ:\n flat %s\n ref  %s", got, want)
	}
}

// checkBounds checks what the bit rows, generations and expiry bounds
// promise at now, the last sweep having run at swept: generations are
// stored oldest first, each with a key, and none with expiry ≤ swept
// survives; a two-hop row whose bound has not passed holds exactly the
// keys of the live generations, none of which expires before the bound;
// no duplicate tuple expires before its list's bound, a bound of 0
// covers an empty list, and none with expiry ≤ swept survives; a dests
// row has an id exactly when its originator has a topology set.
func checkBounds(o *OLSR, now, swept time.Duration) error {
	for id := range o.nbrs {
		l := &o.nbrs[id]
		if len(l.gens)%(o.words+1) != 0 {
			return fmt.Errorf("neighbor %d: %d generation words at %d words a row", id, len(l.gens), o.words)
		}
		var prev time.Duration
		live := make([]uint64, o.words)
		for g := 0; g*(o.words+1) < len(l.gens); g++ {
			expiry, r := o.gen(l, g)
			if expiry < prev || expiry <= swept || len(rowIDs(r)) == 0 {
				return fmt.Errorf("neighbor %d generation %d: expiry %v after %v, swept at %v, keys %v", id, g, expiry, prev, swept, rowIDs(r))
			}
			prev = expiry
			if expiry > now {
				if !passed(l.rowDue, now) && (l.rowDue == 0 || expiry < l.rowDue) {
					return fmt.Errorf("neighbor %d generation %d expires at %v, before the row's bound %v", id, g, expiry, l.rowDue)
				}
				or(live, r)
			}
		}
		if passed(l.rowDue, now) {
			continue
		}
		if got, want := rowIDs(o.row(o.twoHopRows, int32(id))), rowIDs(live); !slices.Equal(got, want) {
			return fmt.Errorf("two-hop row %d = %v at %v (bound %v), live generations %v", id, got, now, l.rowDue, want)
		}
	}
	for id := range o.origs {
		og := &o.origs[id]
		for _, h := range og.dup {
			if og.dupDue == 0 || h.expiry < og.dupDue || h.expiry <= swept {
				return fmt.Errorf("duplicate list %d: tuple %+v against bound %v, swept at %v", id, h, og.dupDue, swept)
			}
		}
		if got := rowIDs(o.row(o.destRows, int32(id))); og.topo != (len(got) > 0) {
			return fmt.Errorf("dests row %d = %v with a topology set %v", id, got, og.topo)
		}
	}
	return nil
}

// rowIDs lists the ids a bit row holds, ascending.
func rowIDs(row []uint64) (ids []int32) {
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
	return ids
}

// tuple is one stored fact: a link (x packs symmetric and isMPR), two-hop,
// selector, topology (x is the ANSN) or duplicate tuple with its expiry,
// or a routing-table entry (b the next hop, x the hop count).
type tuple struct {
	kind  string
	a, b  int
	x     int
	until time.Duration
}

func sortTuples(ts []tuple) []tuple {
	slices.SortFunc(ts, func(p, q tuple) int {
		return cmp.Or(cmp.Compare(p.kind, q.kind), cmp.Compare(p.a, q.a), cmp.Compare(p.b, q.b),
			cmp.Compare(p.x, q.x), cmp.Compare(p.until, q.until))
	})
	return ts
}

func flags(symmetric, isMPR bool) (x int) {
	if symmetric {
		x |= 1
	}
	if isMPR {
		x |= 2
	}
	return x
}

// tuples lists everything o holds, and the routing table as last
// computed, in sorted order; refTuples lists the reference's maps the same
// way.
func tuples(o *OLSR) []tuple {
	var out []tuple
	for id, l := range o.nbrs {
		if l.link {
			out = append(out, tuple{"link", id, 0, flags(l.symmetric, l.isMPR), l.expiry})
		}
		// A two-hop tuple is a key with the latest expiry of the
		// generations listing it; they are stored oldest first.
		latest := map[int32]time.Duration{}
		for g := 0; g*(o.words+1) < len(l.gens); g++ {
			expiry, r := o.gen(&l, g)
			for _, k := range rowIDs(r) {
				latest[k] = expiry
			}
		}
		for k, until := range latest {
			out = append(out, tuple{"twohop", id, int(k), 0, until})
		}
	}
	for id, until := range o.selUntil {
		if until != 0 {
			out = append(out, tuple{"selector", id, 0, 0, until})
		}
	}
	for id, og := range o.origs {
		for _, dst := range rowIDs(o.row(o.destRows, int32(id))) {
			out = append(out, tuple{"topology", id, int(dst), int(og.ansn), og.expiry})
		}
		for _, d := range og.dup {
			out = append(out, tuple{"dup", id, int(d.key), 0, d.expiry})
		}
	}
	for dst, r := range o.routes {
		if r.hops != 0 {
			out = append(out, tuple{"route", dst, int(r.next), int(r.hops), 0})
		}
	}
	return sortTuples(out)
}

func refTuples(o *refOLSR) []tuple {
	var out []tuple
	for id, l := range o.links {
		out = append(out, tuple{"link", int(id), 0, flags(l.symmetric, l.isMPR), l.expiry})
	}
	for id, set := range o.twoHop {
		for th, until := range set {
			out = append(out, tuple{"twohop", int(id), int(th), 0, until})
		}
	}
	for id, until := range o.selectors {
		out = append(out, tuple{"selector", int(id), 0, 0, until})
	}
	for dst, set := range o.topology {
		for last, tup := range set {
			out = append(out, tuple{"topology", int(last), int(dst), int(tup.ansn), tup.expiry})
		}
	}
	for k, until := range o.dup {
		out = append(out, tuple{"dup", int(k.origin), int(k.seq), 0, until})
	}
	for dst, next := range o.routes {
		out = append(out, tuple{"route", int(dst), int(next), o.hops[dst], 0})
	}
	return sortTuples(out)
}

func randomScript(seed int64, n int) []byte {
	script := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// TestFlatStateMatchesMapReference is the oracle for the id-indexed link
// state: random scripts against the map implementation it replaced.
func TestFlatStateMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		driveBoth(t, randomScript(seed, 3000))
	}
}

// maxScript is as much of a script as FuzzOLSRState plays. The engine
// minimizes every input that finds new coverage by trying O(n²) shorter
// ones, not counted as execs, for up to a minute (-fuzzminimizetime): at
// 400 bytes, a few milliseconds each, that held both workers for the
// whole of a 20 s run. Long scripts are TestFlatStateMatchesMapReference's.
const maxScript = 64

// FuzzOLSRState is the same driver under the native fuzzer; plain
// `go test` runs the seeds, `make fuzz-smoke` fuzzes for 20 s.
func FuzzOLSRState(f *testing.F) {
	f.Add([]byte{})
	// Symmetric neighbor 1 reaching 5; 5 advertises 7; data to 7 fails at
	// the MAC and takes the link to 1 with it.
	f.Add([]byte{128, 0, 2, 255, 1, 5, 1, 135, 0, 9, 5, 1, 7, 142, 7, 139, 5, 0})
	// Neighbor 1 lists 5 and 6, then, 2 s on, 6 and then 5; the table is
	// read; the sweep at 6 s drops the first generation, whose keys the
	// other two still list: nothing changed, so the table stays clean.
	f.Add([]byte{0, 0, 3, 255, 1, 5, 1, 6, 1, 11, 6, 0, 0, 0, 2, 255, 1, 6, 1, 0, 0, 2, 255, 1, 5, 1, 139, 0, 0, 11, 0, 203})
	for seed := int64(100); seed < 104; seed++ {
		f.Add(randomScript(seed, maxScript))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		driveBoth(t, script[:min(len(script), maxScript)])
	})
}

// warm100 is node 0 of a 100-node strip (20 × 5 grid, node id at cell
// (id+50) mod 100 so that node 0 sits in the middle, links between nodes
// within √5 cells) that has heard a HELLO from every neighbor and a TC
// from every other node: the link state of one dense100 node, bit rows
// of two words, for the allocation guards and the benchmarks.
func warm100(tb testing.TB) *OLSR { return warmGrid(tb, true) }

// warmGrid is warm100, or with withTCs false only its links: node 0 has
// heard no TC.
func warmGrid(tb testing.TB, withTCs bool) *OLSR {
	near := func(a, b int) bool {
		ca, cb := (a+50)%100, (b+50)%100
		dx, dy := ca%20-cb%20, ca/20-cb/20
		return a != b && dx*dx+dy*dy <= 5
	}
	neighborsOf := func(a int) (ids []routing.NodeID) {
		for b := 0; b < 100; b++ {
			if near(a, b) {
				ids = append(ids, routing.NodeID(b))
			}
		}
		return ids
	}
	var o *OLSR
	routing.NewNetwork(100, mobility.Line(100, 250), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			p := New(n, DefaultConfig())
			if n.ID() == 0 {
				o = p
			}
			return p
		})
	for _, n := range neighborsOf(0) {
		h := &Hello{Origin: n}
		for _, nn := range neighborsOf(int(n)) {
			h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: nn, Code: LinkSym})
		}
		o.HandleControl(n, h)
	}
	if !withTCs {
		return o
	}
	for a := 1; a < 100; a++ {
		o.HandleControl(1, &TC{Origin: routing.NodeID(a), Seq: 1, ANSN: 1, Selectors: neighborsOf(a), TTL: 1})
	}
	o.recomputeMPRs()
	if n := len(o.AppendTable(nil)); n != 99 {
		tb.Fatalf("warm100 routes to %d of 99 nodes", n)
	}
	if o.words != 2 || len(o.twoHopRows) != 200 {
		tb.Fatalf("warm100 has %d rows of %d words, want 100 of 2", len(o.twoHopRows)/max(o.words, 1), o.words)
	}
	return o
}

// TestSteadyStateAllocs: once the slices have grown to the network's
// size, on the first message, nothing on the periodic or per-message
// paths allocates, not even where a link, a topology set or the whole
// state was dropped: their storage is kept for the next message.
func TestSteadyStateAllocs(t *testing.T) {
	o := warm100(t)
	hello := &Hello{Origin: 1, Neighbors: []HelloNeighbor{{ID: 0, Code: LinkSym}}}
	for _, id := range rowIDs(o.row(o.twoHopRows, 1)) {
		hello.Neighbors = append(hello.Neighbors, HelloNeighbor{ID: routing.NodeID(id), Code: LinkSym})
	}
	tc := &TC{Origin: 3, Seq: 2, ANSN: 2, Selectors: []routing.NodeID{2, 4, 23, 24}, TTL: 1}
	now := o.node.Now()
	// Node 1 selecting node 0 as its MPR gives the TC tick a TC to send.
	mpr := &Hello{Origin: 1, Neighbors: slices.Clone(hello.Neighbors)}
	mpr.Neighbors[0].Code = LinkMPR
	if o.HandleControl(1, mpr); o.nSel == 0 {
		t.Fatal("node 1's HELLO naming node 0 its MPR left node 0 without selectors")
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"recompute", func() { o.recompute() }},
		{"recomputeMPRs", o.recomputeMPRs},
		{"expire", func() { o.expire(now) }},
		{"HELLO", func() { o.HandleControl(1, hello) }},
		{"TC", func() {
			o.origs[3].dup = o.origs[3].dup[:0] // not a duplicate: replaces the set
			o.HandleControl(1, tc)
		}},
		{"HELLO after dropLink", func() {
			o.dropLink(1)
			o.HandleControl(1, hello)
		}},
		{"TC after its set expired", func() {
			og := &o.origs[3]
			og.expiry, og.dup = now, og.dup[:0]
			o.expire(now)
			o.HandleControl(1, tc)
		}},
		// A timer tick re-arms its timer; cancelling it and dropping the
		// queued message hands the event and the message back for the next.
		{"hello tick", func() {
			o.sendHello()
			o.helloTimer.Cancel()
			o.queue.reset()
		}},
		{"TC tick", func() {
			o.HandleControl(1, mpr)
			o.sendTC()
			o.tcTimer.Cancel()
			o.queue.reset()
		}},
		{"sweep tick", func() {
			o.sweep()
			o.sweeper.Cancel()
		}},
		{"HELLO after Reset", func() { // last two: they empty the state
			o.Reset()
			o.HandleControl(1, hello)
		}},
		{"TC after Reset", func() {
			o.Reset()
			o.HandleControl(1, hello)
			o.HandleControl(1, tc)
		}},
	} {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call on warm state", c.name, n)
		}
	}

	// TCs from originators a node has never heard, once its spare
	// duplicate storage is warm: after originators 1–33 it holds shares
	// for 34–64, so hearing 34–63 cuts them from the spare and allocates
	// nothing. Each run hears fifteen, so the count is not averaged away.
	unheard := warmGrid(t, false)
	fresh := &TC{Seq: 1, ANSN: 1, Selectors: tc.Selectors, TTL: 1}
	for fresh.Origin = 1; fresh.Origin <= 33; fresh.Origin++ {
		unheard.HandleControl(1, fresh)
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 15 {
			unheard.HandleControl(1, fresh)
			fresh.Origin++
		}
	}); n != 0 {
		t.Errorf("TCs from 15 new originators allocate %.0f times on a warm spare", n)
	}
}

// TestDupStorageFollowsHeardOriginators: a node's duplicate storage is
// cut from a spare that is refilled by doubling, so a node that hears one
// originator holds minDupShares shares, not one per node of the network,
// and hearing all 99 allocates once per refill.
func TestDupStorageFollowsHeardOriginators(t *testing.T) {
	o := warmGrid(t, false)
	tc := &TC{Origin: 1, Seq: 1, ANSN: 1, Selectors: []routing.NodeID{2}, TTL: 1}
	o.HandleControl(1, tc)
	if got, want := len(o.dupSpare)+cap(o.origs[1].dup), minDupShares*dupStride; got != want {
		t.Fatalf("after one originator the node holds %d duplicate tuples, want %d", got, want)
	}
	// 4, 4, 8, 16, 32 shares, then the 36 originators still without one.
	const refills = 6
	grids := []*OLSR{warmGrid(t, false), warmGrid(t, false)}
	hearAll := func() {
		g := grids[0]
		grids = grids[1:]
		for a := 1; a < 100; a++ {
			tc.Origin = routing.NodeID(a)
			g.HandleControl(1, tc)
		}
	}
	if n := testing.AllocsPerRun(1, hearAll); n != refills {
		t.Fatalf("hearing 99 new originators allocated %.0f times, want %d", n, refills)
	}
}

func BenchmarkRecompute100(b *testing.B) {
	o := warm100(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.recompute()
	}
}

func BenchmarkSelectMPRs100(b *testing.B) {
	o := warm100(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.recomputeMPRs()
	}
}

// TestJitterQueueKeepsOrderAndStorage: the jitter queue sends in push
// order, and once drained it refills the array it had rather than
// growing a new one every cap messages.
func TestJitterQueueKeepsOrderAndStorage(t *testing.T) {
	tap := &listener{}
	var o *OLSR
	nw := routing.NewNetwork(2, mobility.Line(2, 100), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 0 {
				o = New(n, DefaultConfig())
				return o
			}
			return tap
		})
	var storage *routing.Message
	for round := 0; round < 20; round++ {
		var want []string
		for i := 0; i < 3; i++ {
			tc := &TC{Origin: 0, Seq: uint16(3*round + i), TTL: 1}
			want = append(want, fmt.Sprintf("%+v", *tc))
			o.queue.push(tc)
		}
		if round == 0 {
			storage = &o.queue.queue[0]
		} else if &o.queue.queue[0] != storage {
			t.Fatalf("round %d: the queue moved to new storage", round)
		}
		nw.Sim.Run(nw.Sim.Now() + time.Second)
		if !slices.Equal(tap.heard, want) {
			t.Fatalf("round %d: sent %v, pushed %v", round, tap.heard, want)
		}
		tap.heard = tap.heard[:0]
	}
}
