package olsr

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
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
	nw := routing.NewNetwork(2, mobility.Line(2, 100), radio.DefaultConfig(), mac.DefaultConfig(), 1,
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
// stale in the same way on both sides.
func driveBoth(t testing.TB, data []byte) {
	const ids = 10 // node ids in play; 0 is the instance under test
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
			return routing.NodeID(b % ids)
		}
		return 0
	}

	for step := 0; len(data) > 0; step++ {
		op := next()
		var desc string
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 6:
			from := routing.NodeID(1 + next()%(ids-1))
			h := &Hello{Origin: from}
			for n := next() % 7; n > 0; n-- {
				h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: id(), Code: LinkCode(1 + next()%3)})
			}
			desc = fmt.Sprintf("hello from %d: %+v", from, *h)
			flat.HandleControl(from, h)
			ref.HandleControl(from, h)
		case 7, 8, 9, 10:
			from := routing.NodeID(1 + next()%(ids-1))
			b := next()
			tc := &TC{Origin: id(), Seq: uint16(b % 8), ANSN: ansns[int(b/8)%len(ansns)], TTL: 1 + int(b/64)}
			for n := next() % 6; n > 0; n-- {
				tc.Selectors = append(tc.Selectors, id())
			}
			desc = fmt.Sprintf("tc from %d: %+v", from, *tc)
			flat.HandleControl(from, tc)
			ref.HandleControl(from, tc)
		case 11, 12, 13:
			d := short[next()%byte(len(short))]
			if b := next(); b >= 200 {
				d = long[b%byte(len(long))]
			}
			desc = fmt.Sprintf("advance %v", d)
			fnw.Sim.Run(fnw.Sim.Now() + d)
			rnw.Sim.Run(rnw.Sim.Now() + d)
		case 14:
			dst := id()
			desc = fmt.Sprintf("data to %d", dst)
			fnw.Nodes[0].OriginateData(dst, 64)
			rnw.Nodes[0].OriginateData(dst, 64)
		case 15:
			if next()%4 != 0 {
				continue
			}
			desc = "reset+start"
			flat.Reset()
			flat.Start()
			ref.Reset()
			ref.Start()
		}

		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s = %v, reference %v", step, desc, what, got, want)
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
		for id := routing.NodeID(-1); id < ids+2; id++ {
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
		for _, h := range l.twoHop {
			out = append(out, tuple{"twohop", id, int(h.key), 0, h.expiry})
		}
	}
	for id, until := range o.selUntil {
		if until != 0 {
			out = append(out, tuple{"selector", id, 0, 0, until})
		}
	}
	for id, og := range o.origs {
		for _, dst := range og.dests {
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
	return slices.Compact(sortTuples(out)) // a TC may list a selector twice
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

// FuzzOLSRState is the same driver under the native fuzzer; plain
// `go test` runs the seeds, `make fuzz-smoke` fuzzes for 20 s.
func FuzzOLSRState(f *testing.F) {
	f.Add([]byte{})
	// Symmetric neighbor 1 reaching 5; 5 advertises 7; data to 7 fails at
	// the MAC and takes the link to 1 with it.
	f.Add([]byte{128, 0, 2, 255, 1, 5, 1, 135, 0, 9, 5, 1, 7, 142, 7, 139, 5, 0})
	for seed := int64(100); seed < 104; seed++ {
		f.Add(randomScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		driveBoth(t, script)
	})
}

// warm100 is node 0 of a 100-node strip (20 × 5 grid, node id at cell
// (id+50) mod 100 so that node 0 sits in the middle, links between nodes
// within √5 cells) that has heard a HELLO from every neighbor and a TC
// from every other node: the link state of one dense100 node, for the
// allocation guards and the benchmarks.
func warm100(tb testing.TB) *OLSR {
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
	routing.NewNetwork(1, mobility.Line(1, 250), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			o = New(n, DefaultConfig())
			return o
		})
	for _, n := range neighborsOf(0) {
		h := &Hello{Origin: n}
		for _, nn := range neighborsOf(int(n)) {
			h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: nn, Code: LinkSym})
		}
		o.HandleControl(n, h)
	}
	for a := 1; a < 100; a++ {
		o.HandleControl(1, &TC{Origin: routing.NodeID(a), Seq: 1, ANSN: 1, Selectors: neighborsOf(a), TTL: 1})
	}
	o.recomputeMPRs()
	if n := len(o.AppendTable(nil)); n != 99 {
		tb.Fatalf("warm100 routes to %d of 99 nodes", n)
	}
	return o
}

// TestSteadyStateAllocs: once the slices have grown to the network's
// size, nothing on the periodic or per-message paths allocates.
func TestSteadyStateAllocs(t *testing.T) {
	o := warm100(t)
	hello := &Hello{Origin: 1, Neighbors: []HelloNeighbor{{ID: 0, Code: LinkSym}}}
	for _, n := range o.nbrs[1].twoHop {
		hello.Neighbors = append(hello.Neighbors, HelloNeighbor{ID: routing.NodeID(n.key), Code: LinkSym})
	}
	tc := &TC{Origin: 3, Seq: 2, ANSN: 2, Selectors: []routing.NodeID{2, 4, 23, 24}, TTL: 1}
	for name, fn := range map[string]func(){
		"recompute":     func() { o.recompute() },
		"recomputeMPRs": o.recomputeMPRs,
		"expire":        func() { o.expire(o.node.Now()) },
		"HELLO":         func() { o.HandleControl(1, hello) },
		"TC": func() {
			o.origs[3].dup = o.origs[3].dup[:0] // not a duplicate: replaces the set
			o.HandleControl(1, tc)
		},
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call on warm state", name, n)
		}
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
