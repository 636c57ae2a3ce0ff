package aodv

// refAODV is AODV as it was with its routing table in a map and each
// entry's precursors in a set, kept as the reference
// TestTableMatchesMapReference holds the id-indexed table to: the same
// handlers over map[NodeID]*refEntry, a RERR listing destinations in map
// order, and the encoding, save and restore the maps needed — keys
// collected and sorted on the way out, maps rebuilt in place on the way
// back. The duplicate cache and the discovery table are the shared ones
// (ondemand's FuzzOnDemandState holds those to their own maps).

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/runpool"
)

type refEntry struct {
	seq        uint32
	haveSeq    bool
	hops       int
	next       routing.NodeID
	valid      bool
	expiry     time.Duration
	precursors map[routing.NodeID]struct{}
}

func (e *refEntry) active(now time.Duration) bool {
	return e != nil && e.valid && e.expiry > now
}

func (e *refEntry) refresh(now, lifetime time.Duration) {
	if exp := now + lifetime; exp > e.expiry {
		e.expiry = exp
	}
}

func (e *refEntry) precursor(n routing.NodeID) {
	if e.precursors == nil {
		e.precursors = make(map[routing.NodeID]struct{})
	}
	e.precursors[n] = struct{}{}
}

type refAODV struct {
	node *routing.Node

	ownSeq  uint32
	routes  map[routing.NodeID]*refEntry
	reqSeen ondemand.Seen[struct{}]

	ondemand.Discoveries
	ondemand.Limits

	rreqPool runpool.Pool[RREQ]
	rrepPool runpool.Pool[RREP]
	rerrPool runpool.Pool[RERR]
	rerrBuf  []RERRDest
}

func newRefAODV(node *routing.Node) *refAODV {
	a := &refAODV{
		node:   node,
		routes: make(map[routing.NodeID]*refEntry),
		Limits: ondemand.NewLimits(node),
	}
	a.Discoveries = ondemand.NewDiscoveries(node, a)
	return a
}

func (a *refAODV) Start() {}

func sortedIDs[V any](m map[routing.NodeID]V) []routing.NodeID {
	ids := make([]routing.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// AppendModelState is the encoding as it was: the map's rows and each
// precursor set sorted.
func (a *refAODV) AppendModelState(out []byte) []byte {
	out = append(out, 'A')
	out = binary.AppendUvarint(out, uint64(a.ownSeq))
	dsts := sortedIDs(a.routes)
	out = binary.AppendUvarint(out, uint64(len(dsts)))
	for _, dst := range dsts {
		e := a.routes[dst]
		out = binary.AppendVarint(out, int64(dst))
		out = appendFlag(out, e.valid)
		out = appendFlag(out, e.haveSeq)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.hops))
		out = binary.AppendVarint(out, int64(e.next))
		out = binary.AppendVarint(out, int64(e.expiry))
		pre := sortedIDs(e.precursors)
		out = binary.AppendUvarint(out, uint64(len(pre)))
		for _, p := range pre {
			out = binary.AppendVarint(out, int64(p))
		}
	}
	out = a.reqSeen.AppendState(out, a.node.Now(), nil)
	return a.AppendDiscoveryState(out)
}

type refSaved struct {
	key routing.NodeID
	val refEntry
}

type refModelState struct {
	ownSeq  uint32
	routes  []refSaved
	reqSeen ondemand.SeenState[struct{}]
	disc    ondemand.DiscoveryState
	limits  ondemand.LimitsState
}

func copyRefEntry(dst, src *refEntry) {
	pre := dst.precursors
	*dst = *src
	if pre == nil {
		pre = make(map[routing.NodeID]struct{}, len(src.precursors))
	}
	clear(pre)
	for p := range src.precursors {
		pre[p] = struct{}{}
	}
	dst.precursors = pre
}

func (a *refAODV) SaveModelState(store any) any {
	s, _ := store.(*refModelState)
	if s == nil {
		s = new(refModelState)
	}
	s.ownSeq = a.ownSeq
	s.routes = routing.Resize(s.routes, len(a.routes))
	for i, dst := range sortedIDs(a.routes) {
		s.routes[i].key = dst
		copyRefEntry(&s.routes[i].val, a.routes[dst])
	}
	a.reqSeen.SaveState(&s.reqSeen, nil)
	a.SaveDiscoveryState(&s.disc)
	a.SaveLimitsState(&s.limits)
	return s
}

func (a *refAODV) RestoreModelState(store any) {
	s := store.(*refModelState)
	a.ownSeq = s.ownSeq
	for i := range s.routes {
		e := a.routes[s.routes[i].key]
		if e == nil {
			e = new(refEntry)
			a.routes[s.routes[i].key] = e
		}
		copyRefEntry(e, &s.routes[i].val)
	}
	for dst := range a.routes {
		if _, ok := slices.BinarySearchFunc(s.routes, dst, func(r refSaved, k routing.NodeID) int { return cmp.Compare(r.key, k) }); !ok {
			delete(a.routes, dst)
		}
	}
	a.reqSeen.RestoreState(&s.reqSeen, nil)
	a.RestoreDiscoveryState(&s.disc)
	a.RestoreLimitsState(&s.limits)
}

func (a *refAODV) Reset() {
	a.Discoveries.Reset()
	a.Limits.Reset()
	a.ownSeq = 0
	a.routes = make(map[routing.NodeID]*refEntry)
	a.reqSeen.Reset()
}

func (a *refAODV) Originate(pkt *routing.DataPacket) { a.sendOrQueue(pkt) }

func (a *refAODV) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == a.node.ID() {
		a.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		a.node.DropData(pkt, routing.DropTTL)
		return
	}
	a.sendOrQueue(pkt)
}

func (a *refAODV) sendOrQueue(pkt *routing.DataPacket) {
	now := a.node.Now()
	e := a.routes[pkt.Dst]
	if e.active(now) {
		e.refresh(now, ondemand.ActiveRouteTimeout)
		a.node.SendData(e.next, pkt)
		return
	}
	if pkt.Src == a.node.ID() {
		a.Push(pkt)
		a.Solicit(pkt.Dst, a.initialTTL(pkt.Dst))
		return
	}
	dst := pkt.Dst
	a.node.DropData(pkt, routing.DropNoRoute)
	seq := uint32(0)
	if e != nil {
		seq = e.seq + 1
	}
	a.rerrBuf = append(a.rerrBuf[:0], RERRDest{Dst: dst, Seq: seq})
	a.sendRERR(a.rerrBuf)
}

func (a *refAODV) flushPending(dst routing.NodeID) {
	for _, pkt := range a.Take(dst) {
		a.sendOrQueue(pkt)
	}
}

func (a *refAODV) RecycleMessage(msg routing.Message) {
	switch m := msg.(type) {
	case *RREQ:
		a.rreqPool.Put(m)
	case *RREP:
		a.rrepPool.Put(m)
	case *RERR:
		m.Unreachable = m.Unreachable[:0] // keep capacity for reuse
		a.rerrPool.Put(m)
	}
}

func (a *refAODV) sendRREP(to routing.NodeID, p RREP) {
	m := a.rrepPool.Get()
	*m = p
	a.node.SendControl(to, m, func() { a.rrepFailed(to) })
}

func (a *refAODV) rrepFailed(next routing.NodeID) {
	if a.Stopped() {
		return
	}
	a.sendRERR(a.invalidateVia(next))
}

func (a *refAODV) invalidateVia(next routing.NodeID) []RERRDest {
	broken := a.rerrBuf[:0]
	for dst, e := range a.routes {
		if e.valid && e.next == next {
			e.seq++
			e.valid = false
			broken = append(broken, RERRDest{Dst: dst, Seq: e.seq})
		}
	}
	a.rerrBuf = broken[:0]
	return broken
}

func (a *refAODV) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if a.Stopped() {
		return
	}
	a.sendRERR(a.invalidateVia(next))
	if pkt.Src == a.node.ID() {
		a.Push(pkt)
		a.Solicit(pkt.Dst, a.initialTTL(pkt.Dst))
	} else {
		a.node.DropData(pkt, routing.DropLinkBreak)
	}
}

func (a *refAODV) initialTTL(dst routing.NodeID) int {
	if e := a.routes[dst]; e != nil && e.hops > 0 {
		ttl := e.hops + ondemand.TTLIncrement
		if ttl > ondemand.NetDiameter {
			ttl = ondemand.NetDiameter
		}
		return ttl
	}
	return ondemand.TTLStart
}

func (a *refAODV) SendRequest(dst routing.NodeID, d *ondemand.Discovery) time.Duration {
	a.ownSeq++
	q := a.rreqPool.Get()
	*q = RREQ{
		Dst:        dst,
		UnknownSeq: true,
		Origin:     a.node.ID(),
		OriginSeq:  a.ownSeq,
		ReqID:      d.ID,
		TTL:        d.TTL,
	}
	if e := a.routes[dst]; e != nil && e.haveSeq {
		q.DstSeq = e.seq
		q.UnknownSeq = false
	}
	a.node.Metrics().CountControlInitiate(metrics.RREQ)
	a.node.SendControl(routing.BroadcastID, q, nil)
	return ondemand.RingWait(d)
}

func (a *refAODV) NextAttempt(_ routing.NodeID, d *ondemand.Discovery) bool {
	return ondemand.NextRing(d)
}

func (a *refAODV) HandleControl(from routing.NodeID, msg routing.Message) {
	if a.Stopped() {
		return
	}
	switch m := msg.(type) {
	case *RREQ:
		a.handleRREQ(from, *m)
	case *RREP:
		a.handleRREP(from, *m)
	case *RERR:
		a.handleRERR(from, *m)
	}
}

func (a *refAODV) handleRREQ(from routing.NodeID, q RREQ) {
	me := a.node.ID()
	if q.Origin == me {
		return
	}
	now := a.node.Now()
	if !a.AllowRREQ(from, now) {
		return
	}
	key := ondemand.ReqKey{Origin: q.Origin, ID: q.ReqID}
	if a.reqSeen.Get(key, now) != nil {
		return
	}
	a.reqSeen.Add(key, now)

	a.installReverse(q.Origin, q.OriginSeq, q.HopCount, from)

	if q.Dst == me {
		if !q.UnknownSeq && q.DstSeq > a.ownSeq {
			a.ownSeq = q.DstSeq
		}
		a.reply(RREP{
			Dst:      me,
			DstSeq:   a.ownSeq,
			Origin:   q.Origin,
			HopCount: 0,
			Lifetime: myRouteTimeout,
		}, q.Origin)
		return
	}

	e := a.routes[q.Dst]
	canAnswer := e.active(now) && e.haveSeq &&
		(!q.UnknownSeq && e.seq >= q.DstSeq || q.UnknownSeq)
	if canAnswer {
		e.precursor(from)
		a.reply(RREP{
			Dst:      q.Dst,
			DstSeq:   e.seq,
			Origin:   q.Origin,
			HopCount: e.hops,
			Lifetime: e.expiry - now,
		}, q.Origin)
		return
	}

	q.TTL--
	if q.TTL <= 0 {
		return
	}
	q.HopCount++
	if e != nil && e.haveSeq && (q.UnknownSeq || e.seq > q.DstSeq) {
		q.DstSeq = e.seq
		q.UnknownSeq = false
	}
	m := a.rreqPool.Get()
	*m = q
	a.Relay(m)
}

func (a *refAODV) reply(p RREP, origin routing.NodeID) {
	rev := a.routes[origin]
	if !rev.active(a.node.Now()) {
		return
	}
	a.node.Metrics().CountControlInitiate(metrics.RREP)
	a.sendRREP(rev.next, p)
}

func (a *refAODV) handleRREP(from routing.NodeID, p RREP) {
	me := a.node.ID()
	now := a.node.Now()

	usable := false
	if p.Dst != me {
		usable = a.installForward(p, from)
		if usable {
			a.node.Metrics().RREPUsable++
			a.flushPending(p.Dst)
		}
	}

	if p.Origin == me {
		if usable {
			a.Finish(p.Dst)
		}
		return
	}

	rev := a.routes[p.Origin]
	if !rev.active(now) {
		return
	}
	fwd := p
	fwd.HopCount++
	if e := a.routes[p.Dst]; e != nil {
		e.precursor(rev.next)
	}
	rev.refresh(now, ondemand.ActiveRouteTimeout)
	a.sendRREP(rev.next, fwd)
}

func (a *refAODV) handleRERR(from routing.NodeID, e RERR) {
	if !a.AllowRERR(from, a.node.Now()) {
		return
	}
	propagate := a.rerrBuf[:0]
	for _, u := range e.Unreachable {
		ent := a.routes[u.Dst]
		if ent != nil && ent.valid && ent.next == from {
			if u.Seq > ent.seq {
				ent.seq = u.Seq
			}
			ent.valid = false
			propagate = append(propagate, RERRDest{Dst: u.Dst, Seq: ent.seq})
		}
	}
	a.rerrBuf = propagate[:0]
	a.sendRERR(propagate)
}

func (a *refAODV) sendRERR(broken []RERRDest) {
	if len(broken) == 0 {
		return
	}
	a.node.Metrics().CountControlInitiate(metrics.RERR)
	m := a.rerrPool.Get()
	m.Unreachable = append(m.Unreachable[:0], broken...)
	a.node.SendControl(routing.BroadcastID, m, nil)
}

func (a *refAODV) accept(dst routing.NodeID, seq uint32, hops int, via routing.NodeID, now time.Duration) *refEntry {
	e := a.routes[dst]
	if e == nil {
		e = &refEntry{precursors: make(map[routing.NodeID]struct{})}
		a.routes[dst] = e
	} else if better := !e.haveSeq || seq > e.seq || (seq == e.seq && (!e.active(now) || hops < e.hops)); !better {
		return nil
	}
	e.seq, e.haveSeq = seq, true
	e.hops = hops
	e.next = via
	e.valid = true
	return e
}

func (a *refAODV) installReverse(origin routing.NodeID, seq uint32, hops int, via routing.NodeID) {
	if origin == a.node.ID() {
		return
	}
	now := a.node.Now()
	if e := a.accept(origin, seq, hops+1, via, now); e != nil {
		e.refresh(now, ondemand.ActiveRouteTimeout)
	}
}

func (a *refAODV) installForward(p RREP, via routing.NodeID) bool {
	now := a.node.Now()
	life := p.Lifetime
	if life <= 0 {
		life = ondemand.ActiveRouteTimeout
	}
	e := a.accept(p.Dst, p.DstSeq, p.HopCount+1, via, now)
	if e == nil {
		return false
	}
	e.expiry = now + life
	return true
}

func (a *refAODV) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	now := a.node.Now()
	for dst, e := range a.routes {
		out = append(out, routing.RouteEntry{
			Dst:    dst,
			Next:   e.next,
			Metric: e.hops,
			SeqNo:  uint64(e.seq),
			Valid:  e.active(now),
		})
	}
	return out
}

func (a *refAODV) ReportSeqnos(col *metrics.Collector) {
	col.ObserveSeqno(float64(a.ownSeq))
	for _, e := range a.routes {
		if e.haveSeq {
			col.ObserveSeqno(float64(e.seq))
		}
	}
}

func (a *refAODV) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	e := a.routes[dst]
	if !e.active(a.node.Now()) {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

func (a *refAODV) OwnSeq() uint32 { return a.ownSeq }

// tableTap is every neighbour in a differential rig: it sends nothing and
// records each control message it hears, rendered while the pooled
// message is still valid, a RERR's destinations sorted (their order is
// TestRERRListsDestinationsAscending's concern; the map emitted them in
// map order).
type tableTap struct {
	id    routing.NodeID
	heard *[]string
}

func (*tableTap) Start()                                         {}
func (*tableTap) Stop()                                          {}
func (*tableTap) Originate(*routing.DataPacket)                  {}
func (*tableTap) HandleData(routing.NodeID, *routing.DataPacket) {}
func (t *tableTap) HandleControl(from routing.NodeID, msg routing.Message) {
	s := fmt.Sprintf("%d->%d ", from, t.id)
	switch m := msg.(type) {
	case *RREQ:
		s += fmt.Sprintf("%+v", *m)
	case *RREP:
		s += fmt.Sprintf("%+v", *m)
	case *RERR:
		u := slices.Clone(m.Unreachable)
		slices.SortFunc(u, func(a, b RERRDest) int { return cmp.Compare(a.Dst, b.Dst) })
		s += fmt.Sprintf("RERR%+v", u)
	}
	*t.heard = append(*t.heard, s)
}

// tableRig is node 0 running mk's protocol, five neighbours in range and
// two out of it (unicasts to them fail at the MAC), all from one seed.
func tableRig(mk func(*routing.Node) routing.Protocol) (*routing.Network, *[]string) {
	pts := []mobility.Point{{}, {X: 100}, {X: 100, Y: 10}, {X: 100, Y: 20}, {X: 100, Y: 30}, {X: 100, Y: 40}, {X: 3000}, {X: 3000, Y: 10}}
	heard := new([]string)
	nw := routing.NewNetwork(len(pts), mobility.NewStatic(pts), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			if n.ID() == 0 {
				return mk(n)
			}
			return &tableTap{id: n.ID(), heard: heard}
		})
	nw.Start()
	return nw, heard
}

// driveTables interprets data as a script — RREQs, RREPs and RERRs from
// any neighbour with sequence numbers and hop counts drawn from a small
// domain (so that they collide with what is stored), data originated,
// relayed, delivered and failed at the MAC, clock advances across route
// and cache lifetimes, crashes, and saves followed, after any steps, by a
// restore — and plays it to AODV and to refAODV, each node 0 of its own
// rig. After every step the two must agree on everything emitted, the
// table, every route, the own sequence number and the model-state
// encoding; at the end on the collectors and the reported sequence
// numbers.
func driveTables(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var got *AODV
	var want *refAODV
	gnw, gheard := tableRig(func(n *routing.Node) routing.Protocol { got = New(n); return got })
	wnw, wheard := tableRig(func(n *routing.Node) routing.Protocol { want = newRefAODV(n); return want })
	nodes := routing.NodeID(len(gnw.Nodes))

	id := func() routing.NodeID { return routing.NodeID(next()) % nodes }
	neighbour := func() routing.NodeID { return 1 + routing.NodeID(next())%(nodes-1) }
	seq := func() uint32 { return uint32(next() % 4) }
	hops := func() int { return int(next() % 5) }
	bit := func() bool { return next()%2 == 1 }
	advances := [...]time.Duration{time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond, time.Second,
		ondemand.ActiveRouteTimeout, myRouteTimeout, ondemand.RREQCacheLife}
	var gsaved, wsaved any
	var pktID uint64

	for step := 0; len(data) > 0; step++ {
		var desc string
		both := func(f func(p routing.Protocol)) { f(got); f(want) }
		switch op := next() % 16; op {
		case 0, 1, 2, 3:
			from := neighbour()
			dst := id()
			if next() < 64 {
				dst = 0
			}
			q := RREQ{Dst: dst, DstSeq: seq(), UnknownSeq: bit(), Origin: id(), OriginSeq: seq(), ReqID: uint32(next() % 4),
				HopCount: hops(), TTL: 1 + int(next()%6)}
			desc = fmt.Sprintf("rreq from %d: %+v", from, q)
			both(func(p routing.Protocol) { m := q; p.HandleControl(from, &m) })
		case 4, 5, 6:
			from := neighbour()
			rp := RREP{Dst: id(), DstSeq: seq(), Origin: id(), HopCount: hops(), Lifetime: time.Duration(next()%8) * time.Second}
			desc = fmt.Sprintf("rrep from %d: %+v", from, rp)
			both(func(p routing.Protocol) { m := rp; p.HandleControl(from, &m) })
		case 7:
			from := neighbour()
			var u []RERRDest
			for n := 1 + next()%3; n > 0; n-- {
				u = append(u, RERRDest{Dst: id(), Seq: seq()})
			}
			desc = fmt.Sprintf("rerr from %d: %+v", from, u)
			both(func(p routing.Protocol) { p.HandleControl(from, &RERR{Unreachable: slices.Clone(u)}) })
		case 8:
			dst := neighbour()
			desc = fmt.Sprintf("data to %d", dst)
			gnw.Nodes[0].OriginateData(dst, 64)
			wnw.Nodes[0].OriginateData(dst, 64)
		case 9, 10:
			from, src, dst, ttl := neighbour(), id(), id(), 1+int(next()%3)
			pktID++
			desc = fmt.Sprintf("data %d->%d via %d", src, dst, from)
			mk := func() *routing.DataPacket {
				return &routing.DataPacket{Src: src, Dst: dst, ID: pktID, TTL: ttl, Bytes: 64}
			}
			if op == 9 {
				got.HandleData(from, mk())
				want.HandleData(from, mk())
			} else {
				desc = "mac failure of " + desc
				got.DataFailed(from, mk())
				want.DataFailed(from, mk())
			}
		case 11, 12:
			d := advances[next()%byte(len(advances))]
			desc = fmt.Sprintf("advance %v", d)
			gnw.Sim.Run(gnw.Sim.Now() + d)
			wnw.Sim.Run(wnw.Sim.Now() + d)
		case 13:
			if next()%4 == 0 {
				desc = "reset"
				got.Reset()
				want.Reset()
			}
		case 14:
			desc = "save"
			gsaved, wsaved = got.SaveModelState(gsaved), want.SaveModelState(wsaved)
		case 15:
			if gsaved != nil {
				desc = "restore"
				got.RestoreModelState(gsaved)
				want.RestoreModelState(wsaved)
			}
		}

		fail := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s = %v, reference %v", step, desc, what, g, w)
		}
		if !slices.Equal(*gheard, *wheard) {
			fail("emitted", *gheard, *wheard)
		}
		*gheard, *wheard = (*gheard)[:0], (*wheard)[:0]
		gt, wt := got.AppendTable(nil), want.AppendTable(nil)
		slices.SortFunc(wt, func(a, b routing.RouteEntry) int { return cmp.Compare(a.Dst, b.Dst) })
		if !slices.Equal(gt, wt) {
			fail("table", gt, wt)
		}
		for dst := routing.NodeID(-1); dst <= nodes; dst++ {
			gn, gh, gok := got.RouteTo(dst)
			wn, wh, wok := want.RouteTo(dst)
			if gn != wn || gh != wh || gok != wok {
				fail(fmt.Sprintf("RouteTo(%d)", dst), []any{gn, gh, gok}, []any{wn, wh, wok})
			}
		}
		if got.OwnSeq() != want.OwnSeq() {
			fail("own sequence number", got.OwnSeq(), want.OwnSeq())
		}
		if g, w := got.AppendModelState(nil), want.AppendModelState(nil); string(g) != string(w) {
			fail("model state", g, w)
		}
	}

	gc, wc := metrics.NewCollector(), metrics.NewCollector()
	got.ReportSeqnos(gc)
	want.ReportSeqnos(wc)
	for _, c := range [][2]*metrics.Collector{{gnw.Collector, wnw.Collector}, {gc, wc}} {
		g, _ := json.Marshal(c[0])
		w, _ := json.Marshal(c[1])
		if string(g) != string(w) {
			t.Fatalf("collectors differ:\n slices %s\n map    %s", g, w)
		}
	}
}

func randomScript(seed int64, n int) []byte {
	script := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// TestTableMatchesMapReference is the oracle for the id-indexed routing
// table: random scripts against the map table it replaced.
func TestTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		driveTables(t, randomScript(seed, 3000))
	}
}
