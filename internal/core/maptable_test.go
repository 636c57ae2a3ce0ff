package core

// refLDR is LDR as it was with its routing table in a map, kept as the
// reference TestTableMatchesMapReference holds the id-indexed table to:
// the same handlers over map[NodeID]*entry, a RERR listing destinations in
// map order, and the encoding, save and restore the map needed — rows
// collected and sorted on the way out, the map rebuilt in place on the
// way back. The duplicate cache and the discovery table are the shared
// ones (ondemand's FuzzOnDemandState holds those to their own maps).

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
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/runpool"
)

type refLDR struct {
	node *routing.Node
	cfg  Config

	ownSeq  Seqno
	routes  map[routing.NodeID]*entry
	reqSeen ondemand.Seen[reqState]

	ondemand.Discoveries
	ondemand.Limits

	rreqPool runpool.Pool[RREQ]
	rrepPool runpool.Pool[RREP]
	rerrPool runpool.Pool[RERR]
	rerrBuf  []RERRDest
}

func newRefLDR(node *routing.Node, cfg Config) *refLDR {
	l := &refLDR{
		node:   node,
		cfg:    cfg,
		ownSeq: NewSeqno(1, 0),
		routes: make(map[routing.NodeID]*entry),
		Limits: ondemand.NewLimits(node),
	}
	l.Discoveries = ondemand.NewDiscoveries(node, l)
	return l
}

func (l *refLDR) Start() {}

func (l *refLDR) ResetVolatile() {
	l.Reset()
	l.routes = make(map[routing.NodeID]*entry)
	l.ownSeq = NewSeqno(1, 0)
}

// AppendModelState is the encoding as it was: the map's rows sorted by
// destination.
func (l *refLDR) AppendModelState(out []byte) []byte {
	out = append(out, 'L')
	out = binary.AppendUvarint(out, uint64(l.ownSeq))
	dsts := make([]routing.NodeID, 0, len(l.routes))
	for dst := range l.routes {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	out = binary.AppendUvarint(out, uint64(len(dsts)))
	for _, dst := range dsts {
		e := l.routes[dst]
		out = binary.AppendVarint(out, int64(dst))
		out = appendBool(out, e.valid)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.dist))
		out = binary.AppendVarint(out, int64(e.fd))
		out = binary.AppendVarint(out, int64(e.next))
		out = binary.AppendVarint(out, int64(e.expiry))
	}
	out = l.reqSeen.AppendState(out, l.node.Now(), appendReqState)
	return l.AppendDiscoveryState(out)
}

type refSaved struct {
	key routing.NodeID
	val entry
}

type refModelState struct {
	ownSeq  Seqno
	routes  []refSaved
	reqSeen ondemand.SeenState[reqState]
	disc    ondemand.DiscoveryState
	limits  ondemand.LimitsState
}

func (l *refLDR) SaveModelState(store any) any {
	s, _ := store.(*refModelState)
	if s == nil {
		s = new(refModelState)
	}
	s.ownSeq = l.ownSeq
	s.routes = routing.Resize(s.routes, len(l.routes))
	i := 0
	for dst, e := range l.routes {
		s.routes[i] = refSaved{dst, *e}
		i++
	}
	slices.SortFunc(s.routes, func(a, b refSaved) int { return cmp.Compare(a.key, b.key) })
	l.reqSeen.SaveState(&s.reqSeen)
	l.SaveDiscoveryState(&s.disc)
	l.SaveLimitsState(&s.limits)
	return s
}

func (l *refLDR) RestoreModelState(store any) {
	s := store.(*refModelState)
	l.ownSeq = s.ownSeq
	for i := range s.routes {
		e := l.routes[s.routes[i].key]
		if e == nil {
			e = new(entry)
			l.routes[s.routes[i].key] = e
		}
		*e = s.routes[i].val
	}
	for dst := range l.routes {
		if _, ok := slices.BinarySearchFunc(s.routes, dst, func(r refSaved, k routing.NodeID) int { return cmp.Compare(r.key, k) }); !ok {
			delete(l.routes, dst)
		}
	}
	l.reqSeen.RestoreState(&s.reqSeen)
	l.RestoreDiscoveryState(&s.disc)
	l.RestoreLimitsState(&s.limits)
}

func (l *refLDR) Reset() {
	l.Discoveries.Reset()
	l.Limits.Reset()
	for _, e := range l.routes {
		e.invalidate()
	}
	l.reqSeen.Reset()
}

func (l *refLDR) OwnSeq() Seqno { return l.ownSeq }

func (l *refLDR) Originate(pkt *routing.DataPacket) {
	l.sendOrQueue(pkt)
}

func (l *refLDR) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == l.node.ID() {
		l.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		l.node.DropData(pkt, routing.DropTTL)
		return
	}
	l.sendOrQueue(pkt)
}

func (l *refLDR) sendOrQueue(pkt *routing.DataPacket) {
	now := l.node.Now()
	e := l.routes[pkt.Dst]
	if e.active(now) {
		e.refresh(now, ondemand.ActiveRouteTimeout)
		l.node.SendData(e.next, pkt)
		return
	}
	if pkt.Src == l.node.ID() {
		l.Push(pkt)
		l.Solicit(pkt.Dst, l.initialTTL(pkt.Dst))
		return
	}
	dst := pkt.Dst
	l.node.DropData(pkt, routing.DropNoRoute)
	l.rerrBuf = append(l.rerrBuf[:0], RERRDest{Dst: dst, Seq: l.seqFor(dst)})
	l.sendRERR(l.rerrBuf)
}

func (l *refLDR) flushPending(dst routing.NodeID) {
	for _, pkt := range l.Take(dst) {
		l.sendOrQueue(pkt)
	}
}

func (l *refLDR) RecycleMessage(msg routing.Message) {
	switch m := msg.(type) {
	case *RREQ:
		l.rreqPool.Put(m)
	case *RREP:
		l.rrepPool.Put(m)
	case *RERR:
		m.Unreachable = m.Unreachable[:0] // keep capacity for reuse
		l.rerrPool.Put(m)
	}
}

func (l *refLDR) sendRREQ(to routing.NodeID, q RREQ) {
	m := l.rreqPool.Get()
	*m = q
	l.node.SendControl(to, m, nil)
}

func (l *refLDR) sendRREP(to routing.NodeID, p RREP) {
	m := l.rrepPool.Get()
	*m = p
	l.node.SendControl(to, m, l.rrepFailed)
}

func (l *refLDR) rrepFailed(next routing.NodeID) {
	if l.Stopped() {
		return
	}
	l.invalidateVia(next)
}

func (l *refLDR) invalidateVia(next routing.NodeID) {
	broken := l.rerrBuf[:0]
	for dst, e := range l.routes {
		if e.valid && e.next == next {
			e.invalidate()
			broken = append(broken, RERRDest{Dst: dst, Seq: e.seq})
		}
	}
	l.rerrBuf = broken[:0]
	l.sendRERR(broken)
}

func (l *refLDR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if l.Stopped() {
		return
	}
	l.invalidateVia(next)
	if pkt.Src == l.node.ID() {
		l.Push(pkt)
		l.Solicit(pkt.Dst, l.initialTTL(pkt.Dst))
	} else {
		l.node.DropData(pkt, routing.DropLinkBreak)
	}
}

func (l *refLDR) initialTTL(dst routing.NodeID) int {
	e := l.routes[dst]
	if l.cfg.OptimalTTL && e != nil && e.dist < Infinity {
		ttl := e.dist - l.answerDist(e) + localAddTTL
		if ttl < l.RingStart {
			ttl = l.RingStart
		}
		if ttl > ondemand.NetDiameter {
			ttl = ondemand.NetDiameter
		}
		return ttl
	}
	return l.RingStart
}

func (l *refLDR) answerDist(e *entry) int {
	fd := Infinity
	if e != nil {
		fd = e.fd
	}
	if !l.cfg.ReducedDistance || fd >= Infinity {
		return fd
	}
	ad := int(reducedFactor * float64(fd))
	if ad < 1 {
		ad = 1
	}
	return ad
}

func (l *refLDR) SendRequest(dst routing.NodeID, d *ondemand.Discovery) time.Duration {
	e := l.routes[dst]
	q := RREQ{
		Dst:       dst,
		Origin:    l.node.ID(),
		OriginSeq: l.ownSeq,
		ReqID:     d.ID,
		FD:        Infinity,
		AnsDist:   l.answerDist(e),
		Dist:      0,
		TTL:       d.TTL,
	}
	if e != nil {
		q.HaveDstSeq = true
		q.DstSeq = e.seq
		q.FD = e.fd
	}
	l.node.Metrics().CountControlInitiate(metrics.RREQ)
	l.sendRREQ(routing.BroadcastID, q)
	return ondemand.RingWait(d)
}

func (l *refLDR) NextAttempt(_ routing.NodeID, d *ondemand.Discovery) bool {
	return ondemand.NextRing(d)
}

func (l *refLDR) HandleControl(from routing.NodeID, msg routing.Message) {
	if l.Stopped() {
		return
	}
	switch m := msg.(type) {
	case *RREQ:
		l.handleRREQ(from, *m)
	case *RREP:
		l.handleRREP(from, *m)
	case *RERR:
		l.handleRERR(from, *m)
	}
}

func (l *refLDR) handleRREQ(from routing.NodeID, q RREQ) {
	me := l.node.ID()
	if q.Origin == me {
		return
	}
	now := l.node.Now()
	if !l.AllowRREQ(from, now) {
		return
	}
	key := ondemand.ReqKey{Origin: q.Origin, ID: q.ReqID}
	st := l.reqSeen.Get(key, now)
	if st != nil {
		if q.D && !st.unicastFwd && !st.replied && q.Dst != me {
			st.unicastFwd = true
			l.forwardUnicastRREQ(q)
		} else if q.D && q.Dst == me && !st.replied {
			st.replied = true
			l.destinationReply(q, st)
		}
		return
	}
	st = l.reqSeen.Add(key, now)
	st.lastHop = from

	reverseOK := false
	if !q.D {
		reverseOK = l.acceptAdvertisement(q.Origin, q.OriginSeq, q.Dist, from)
	}
	if !reverseOK && !l.routes[q.Origin].active(now) {
		q.N = true
	}

	if e := l.routes[q.Dst]; e != nil && e.valid && e.next == from {
		if !q.HaveDstSeq || q.AnsDist > e.dist-1 {
			e.invalidate()
		}
	}

	if q.Dst == me {
		st.replied = true
		l.destinationReply(q, st)
		return
	}

	e := l.routes[q.Dst]
	if l.sdc(e, q, now) {
		if !q.T {
			st.replied = true
			l.sendReply(q, e, st, now)
			return
		}
		if l.cfg.ResetLeg != NoLeg {
			st.unicastFwd = true
			uq := l.updateInvariants(q, e)
			uq.D = true
			uq.TTL = e.dist + localAddTTL
			l.forwardUnicastRREQ(uq)
			return
		}
	}

	q.TTL--
	if q.TTL <= 0 || q.D && l.cfg.ResetLeg == LegDies {
		return
	}
	m := l.rreqPool.Get()
	*m = l.updateInvariants(q, e)
	l.Relay(m)
}

func (l *refLDR) sdc(e *entry, q RREQ, now time.Duration) bool {
	if !e.active(now) {
		return false
	}
	if l.cfg.MinLifetime && e.expiry-now < ondemand.ActiveRouteTimeout/3 {
		return false
	}
	if !q.HaveDstSeq {
		return true
	}
	if e.seq > q.DstSeq {
		return true
	}
	return e.seq == q.DstSeq && e.dist < q.AnsDist
}

func (l *refLDR) updateInvariants(q RREQ, e *entry) RREQ {
	q.Dist++ // eq. (7): the reverse-path advertisement grew one hop
	if e == nil {
		return q
	}
	switch {
	case !q.HaveDstSeq || e.seq > q.DstSeq:
		q.HaveDstSeq = true
		q.DstSeq = e.seq
		q.FD = e.fd
		q.AnsDist = l.answerDist(e)
		q.T = false
	case e.seq == q.DstSeq && e.fd < q.FD:
		q.FD = e.fd
		if ad := l.answerDist(e); ad < q.AnsDist {
			q.AnsDist = ad
		}
	case e.seq == q.DstSeq:
		q.T = true
	}
	return q
}

func (l *refLDR) forwardUnicastRREQ(q RREQ) {
	now := l.node.Now()
	e := l.routes[q.Dst]
	if !e.active(now) {
		return
	}
	q.TTL--
	if q.TTL <= 0 {
		return
	}
	l.sendRREQ(e.next, q)
}

func (l *refLDR) destinationReply(q RREQ, st *reqState) {
	now := l.node.Now()
	if q.T && q.HaveDstSeq && l.ownSeq <= q.DstSeq {
		l.ownSeq = l.ownSeq.Next(now)
	} else if q.HaveDstSeq && q.DstSeq > l.ownSeq {
		l.ownSeq = NewSeqno(q.DstSeq.Timestamp(), q.DstSeq.Counter()).Next(now)
	}
	l.node.Metrics().CountControlInitiate(metrics.RREP)
	l.sendRREP(st.lastHop, RREP{
		Dst:      l.node.ID(),
		DstSeq:   l.ownSeq,
		Origin:   q.Origin,
		ReqID:    q.ReqID,
		Dist:     0,
		Lifetime: ondemand.ActiveRouteTimeout,
		N:        q.N,
	})
}

func (l *refLDR) sendReply(q RREQ, e *entry, st *reqState, now time.Duration) {
	p := RREP{
		Dst:      q.Dst,
		DstSeq:   e.seq,
		Origin:   q.Origin,
		ReqID:    q.ReqID,
		Dist:     e.dist,
		Lifetime: e.expiry - now,
		N:        q.N,
	}
	l.node.Metrics().CountControlInitiate(metrics.RREP)
	l.sendRREP(st.lastHop, p)
}

func (l *refLDR) handleRREP(from routing.NodeID, p RREP) {
	me := l.node.ID()
	now := l.node.Now()

	accepted := false
	if p.Dst != me {
		accepted = l.acceptAdvertisement(p.Dst, p.DstSeq, p.Dist, from)
		if accepted {
			l.node.Metrics().RREPUsable++
			l.flushPending(p.Dst)
		}
	}

	if p.Origin == me {
		if accepted {
			l.Finish(p.Dst)
		}
		if p.N && accepted {
			l.ownSeq = l.ownSeq.Next(now)
		}
		return
	}

	st := l.reqSeen.Get(ondemand.ReqKey{Origin: p.Origin, ID: p.ReqID}, now)
	if st == nil {
		return // not engaged in this computation; nowhere to relay
	}
	e := l.routes[p.Dst]
	if !e.active(now) {
		return
	}
	fwd := RREP{
		Dst:      p.Dst,
		DstSeq:   e.seq,
		Origin:   p.Origin,
		ReqID:    p.ReqID,
		Dist:     e.dist,
		Lifetime: e.expiry - now,
		N:        p.N,
	}
	if st.relayed {
		if !l.cfg.MultipleRREPs {
			return
		}
		stronger := fwd.DstSeq > st.relayedSeq ||
			(fwd.DstSeq == st.relayedSeq && fwd.Dist < st.relayedDist)
		if !stronger {
			return
		}
	}
	st.relayed = true
	st.relayedSeq = fwd.DstSeq
	st.relayedDist = fwd.Dist
	l.sendRREP(st.lastHop, fwd)
}

func (l *refLDR) handleRERR(from routing.NodeID, e RERR) {
	if !l.AllowRERR(from, l.node.Now()) {
		return
	}
	propagate := l.rerrBuf[:0]
	for _, u := range e.Unreachable {
		ent := l.routes[u.Dst]
		if ent == nil {
			continue
		}
		if ent.valid && ent.next == from && ent.seq <= u.Seq {
			ent.invalidate()
			propagate = append(propagate, RERRDest{Dst: u.Dst, Seq: ent.seq})
		}
	}
	l.rerrBuf = propagate[:0]
	l.sendRERR(propagate)
}

func (l *refLDR) sendRERR(broken []RERRDest) {
	if len(broken) == 0 {
		return
	}
	l.node.Metrics().CountControlInitiate(metrics.RERR)
	m := l.rerrPool.Get()
	m.Unreachable = append(m.Unreachable[:0], broken...)
	l.node.SendControl(routing.BroadcastID, m, nil)
}

func (l *refLDR) acceptAdvertisement(dst routing.NodeID, advSeq Seqno, advDist int, via routing.NodeID) bool {
	if dst == l.node.ID() || via == routing.BroadcastID {
		return false
	}
	now := l.node.Now()
	e := l.routes[dst]
	if e == nil {
		ne := newEntry(advSeq, advDist, via, 1, now, ondemand.ActiveRouteTimeout)
		l.routes[dst] = &ne
		return true
	}
	if !e.ndc(advSeq, advDist) {
		l.node.Metrics().FeasibilityRejections++
		return false
	}
	if e.active(now) && advSeq == e.seq && via != e.next && advDist+1 >= e.dist {
		return false
	}
	e.update(advSeq, advDist, via, 1, now, ondemand.ActiveRouteTimeout)
	return true
}

func (l *refLDR) seqFor(dst routing.NodeID) Seqno {
	if e := l.routes[dst]; e != nil {
		return e.seq
	}
	return 0
}

func (l *refLDR) SnapshotTable() []routing.RouteEntry {
	return l.AppendTable(make([]routing.RouteEntry, 0, len(l.routes)))
}

func (l *refLDR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	now := l.node.Now()
	for dst, e := range l.routes {
		out = append(out, routing.RouteEntry{
			Dst:    dst,
			Next:   e.next,
			Metric: e.dist,
			SeqNo:  uint64(e.seq),
			FD:     e.fd,
			Valid:  e.active(now),
		})
	}
	return out
}

func (l *refLDR) ReportSeqnos(col *metrics.Collector) {
	col.ObserveSeqno(float64(l.ownSeq.Counter()))
	for _, e := range l.routes {
		col.ObserveSeqno(float64(e.seq.Counter()))
	}
}

func (l *refLDR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	e := l.routes[dst]
	if !e.active(l.node.Now()) {
		return 0, 0, false
	}
	return e.next, e.dist, true
}

func (l *refLDR) FeasibleDistance(dst routing.NodeID) int {
	if e := l.routes[dst]; e != nil {
		return e.fd
	}
	return Infinity
}

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
	nw := routing.NewNetwork(len(pts), mobility.NewStatic(pts), mac.DefaultConfig(), 1,
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
// any neighbour with labels drawn from a small domain (so that they
// collide with what is stored), data originated, relayed, delivered and
// failed at the MAC, clock advances across route and cache lifetimes,
// crashes with and without stable storage, and saves followed, after any
// steps, by a restore — and plays it to LDR and to refLDR, each node 0 of
// its own rig. After every step the two must agree on everything emitted,
// the table, every route and feasible distance, the own sequence number
// and the model-state encoding; at the end on the collectors and the
// reported sequence numbers.
func driveTables(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// The first byte picks the reset leg and the ring's start: the
	// ablation's arms as well as the defaults.
	cfg := DefaultConfig()
	b := next()
	cfg.ResetLeg = [...]ResetLeg{LegFloods, LegDies, NoLeg}[b%3]
	ring := ondemand.TTLStart
	if b&4 != 0 {
		ring = ondemand.NetDiameter
	}
	var got *LDR
	var want *refLDR
	gnw, gheard := tableRig(func(n *routing.Node) routing.Protocol { got = New(n, cfg); got.RingStart = ring; return got })
	wnw, wheard := tableRig(func(n *routing.Node) routing.Protocol { want = newRefLDR(n, cfg); want.RingStart = ring; return want })
	nodes := routing.NodeID(len(gnw.Nodes))

	id := func() routing.NodeID { return routing.NodeID(next()) % nodes }
	neighbour := func() routing.NodeID { return 1 + routing.NodeID(next())%(nodes-1) }
	seqs := [...]Seqno{NewSeqno(1, 0), NewSeqno(1, 1), NewSeqno(1, 2), NewSeqno(2, 0)}
	seq := func() Seqno { return seqs[next()%byte(len(seqs))] }
	dist := func() int {
		if b := next(); b < 240 {
			return int(b % 6)
		}
		return Infinity
	}
	bit := func() bool { return next()%2 == 1 }
	advances := [...]time.Duration{time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond, time.Second,
		ondemand.ActiveRouteTimeout / 3, ondemand.ActiveRouteTimeout, ondemand.RREQCacheLife}
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
				dst = 0 // a request for us, so that later copies meet an engaged destination
			}
			q := RREQ{Dst: dst, Origin: id(), OriginSeq: seq(), ReqID: uint32(next() % 4), HaveDstSeq: bit(), DstSeq: seq(),
				FD: dist(), AnsDist: dist(), Dist: dist(), TTL: 1 + int(next()%6), T: bit(), N: bit(), D: bit()}
			desc = fmt.Sprintf("rreq from %d: %+v", from, q)
			both(func(p routing.Protocol) { m := q; p.HandleControl(from, &m) })
		case 4, 5, 6:
			from := neighbour()
			rp := RREP{Dst: id(), DstSeq: seq(), Origin: id(), ReqID: uint32(next() % 6), Dist: dist(),
				Lifetime: time.Duration(1+next()%8) * time.Second, N: bit()}
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
			switch next() % 4 {
			case 0:
				desc = "reset"
				got.Reset()
				want.Reset()
			case 1:
				desc = "volatile reset"
				got.ResetVolatile()
				want.ResetVolatile()
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
			gn, gd, gok := got.RouteTo(dst)
			wn, wd, wok := want.RouteTo(dst)
			if gn != wn || gd != wd || gok != wok {
				fail(fmt.Sprintf("RouteTo(%d)", dst), []any{gn, gd, gok}, []any{wn, wd, wok})
			}
			if g, w := got.FeasibleDistance(dst), want.FeasibleDistance(dst); g != w {
				fail(fmt.Sprintf("FeasibleDistance(%d)", dst), g, w)
			}
		}
		if got.OwnSeq() != want.ownSeq {
			fail("own sequence number", got.OwnSeq(), want.ownSeq)
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
