// Package aodv implements the Ad hoc On-demand Distance Vector protocol
// (Perkins, Belding-Royer, Das — draft-ietf-manet-aodv-10), the primary
// baseline in the LDR paper.
//
// AODV's loop-freedom rests entirely on per-destination sequence numbers:
// a node that loses a route increments its *stored copy* of the
// destination's sequence number before rediscovering, which prevents any
// upstream node from answering with stale state — but also silences
// downstream nodes that still hold perfectly good loop-free routes with
// the prior number. That asymmetry (and the resulting sequence-number
// inflation, Fig. 7 of the paper) is exactly what LDR's feasible-distance
// label removes.
package aodv

import (
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/runpool"
)

// myRouteTimeout is the lifetime a destination grants the route to
// itself in its own replies (draft-10 MY_ROUTE_TIMEOUT). The timers and
// the ring schedule are the constants LDR shares (package ondemand).
const myRouteTimeout = 6 * time.Second

// RREQ is an AODV route request.
type RREQ struct {
	Dst        routing.NodeID
	DstSeq     uint32
	UnknownSeq bool
	Origin     routing.NodeID
	OriginSeq  uint32
	ReqID      uint32
	HopCount   int
	TTL        int
}

// Kind implements routing.Message.
func (*RREQ) Kind() metrics.ControlKind { return metrics.RREQ }

// Size implements routing.Message: the bytes on air.
func (*RREQ) Size() int { return rreqWireSize }

// RREP is an AODV route reply.
type RREP struct {
	Dst      routing.NodeID
	DstSeq   uint32
	Origin   routing.NodeID
	HopCount int
	Lifetime time.Duration
}

// Kind implements routing.Message.
func (*RREP) Kind() metrics.ControlKind { return metrics.RREP }

// Size implements routing.Message.
func (*RREP) Size() int { return rrepWireSize }

// RERRDest names one newly unreachable destination.
type RERRDest struct {
	Dst routing.NodeID
	Seq uint32 // the incremented sequence number
}

// RERR reports broken routes.
type RERR struct {
	Unreachable []RERRDest
}

// Kind implements routing.Message.
func (*RERR) Kind() metrics.ControlKind { return metrics.RERR }

// Size implements routing.Message.
func (e *RERR) Size() int { return rerrWireBase + rerrWirePerDest*len(e.Unreachable) }

// Wire sizes of the fixed-layout messages (type byte included); each
// field's width is listed in scenario.TestMessageLayouts.
const (
	rreqWireSize    = 1 + 1 + 4 + 4 + 4 + 4 + 4 + 1 + 1
	rrepWireSize    = 1 + 4 + 4 + 4 + 1 + 4
	rerrWireBase    = 1 + 2
	rerrWirePerDest = 4 + 4
)

// entry is one AODV routing-table row. Every entry has a sequence number
// from the route that created it, so a slot with haveSeq false holds no
// entry.
type entry struct {
	seq        uint32
	haveSeq    bool
	valid      bool
	hops       int
	next       routing.NodeID
	expiry     time.Duration
	precursors []routing.NodeID // a set, ascending
}

func (e *entry) active(now time.Duration) bool {
	return e != nil && e.valid && e.expiry > now
}

func (e *entry) refresh(now, lifetime time.Duration) {
	if exp := now + lifetime; exp > e.expiry {
		e.expiry = exp
	}
}

// AODV is one node's protocol instance.
type AODV struct {
	node *routing.Node

	ownSeq  uint32
	routes  []entry                 // one slot per node by destination id, from the first entry
	reqSeen ondemand.Seen[struct{}] // RREQ duplicate cache

	ondemand.Discoveries // active discoveries and the data buffered behind them
	ondemand.Limits      // per-neighbour RREQ/RERR admission

	// Free lists for outgoing control messages (recycled by the node
	// layer once the carrying frame is released) and a scratch buffer
	// for assembling RERR destination lists.
	rreqPool runpool.Pool[RREQ]
	rrepPool runpool.Pool[RREP]
	rerrPool runpool.Pool[RERR]
	rerrBuf  []RERRDest
}

var (
	_ routing.Protocol           = (*AODV)(nil)
	_ routing.TableSnapshotter   = (*AODV)(nil)
	_ routing.TableAppender      = (*AODV)(nil)
	_ routing.Resetter           = (*AODV)(nil)
	_ routing.DataFailureHandler = (*AODV)(nil)
	_ routing.MessageRecycler    = (*AODV)(nil)
)

// New builds an AODV instance bound to a node.
func New(node *routing.Node) *AODV {
	a := &AODV{
		node:   node,
		Limits: ondemand.NewLimits(node),
	}
	a.Discoveries = ondemand.NewDiscoveries(node, a)
	return a
}

// Start implements routing.Protocol. AODV is purely reactive here: link
// breaks are learned from MAC-layer feedback, as in the paper's setup.
func (a *AODV) Start() {}

// Reset implements routing.Resetter: a crash loses everything, including
// the node's own sequence number — draft-10 AODV keeps it in volatile
// memory, and this loss is the premise of the van Glabbeek et al. loop
// construction ("Sequence Numbers Do Not Guarantee Loop Freedom"): the
// rebooted node must solicit with UnknownSeq set, so a neighbor holding a
// stale route *through* it may answer and close a cycle. Only the
// request-ID counter survives, as a stand-in for the randomized RREQ ID
// real implementations pick at boot; keeping it monotone stops neighbors'
// reqSeen caches from eating the first post-reboot discovery, which is a
// simulation artifact rather than protocol behaviour.
func (a *AODV) Reset() {
	a.Discoveries.Reset()
	a.Limits.Reset()
	a.ownSeq = 0
	clear(a.routes)
	a.reqSeen.Reset()
}

// --- data plane ---

// Originate implements routing.Protocol.
func (a *AODV) Originate(pkt *routing.DataPacket) { a.sendOrQueue(pkt) }

// HandleData implements routing.Protocol.
func (a *AODV) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
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

func (a *AODV) sendOrQueue(pkt *routing.DataPacket) {
	now := a.node.Now()
	e := a.route(pkt.Dst)
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
	// A relay with no route reports the destination unreachable so that
	// upstream holders of the stale route purge it.
	seq := uint32(0)
	if e != nil {
		seq = e.seq + 1
	}
	a.rerrBuf = append(a.rerrBuf[:0], RERRDest{Dst: dst, Seq: seq})
	a.sendRERR(a.rerrBuf)
}

func (a *AODV) flushPending(dst routing.NodeID) {
	for _, pkt := range a.Take(dst) {
		a.sendOrQueue(pkt)
	}
}

// RecycleMessage implements routing.MessageRecycler: the node layer hands
// back a control message once its frame is fully released.
func (a *AODV) RecycleMessage(msg routing.Message) {
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

// sendRREP wraps a handler-built value in a pooled message for the wire.
// The pooled object belongs to the frame until recycled.
func (a *AODV) sendRREP(to routing.NodeID, p RREP) {
	m := a.rrepPool.Get()
	*m = p
	a.node.SendControl(to, m, func() { a.rrepFailed(to) })
}

// rrepFailed handles a MAC-failed RREP unicast toward next. Reverse
// routes are installed from broadcast RREQs, which need no return link —
// so on a one-way link the reply rides a route that never worked, and
// draft AODV would lose it silently (the bidirectionality assumption the
// AWN formalization calls out). Treat it as the link failure it is:
// invalidate every route through next with the usual seqno bump and RERR,
// so upstream nodes stop soliciting answers across a dead reverse path.
func (a *AODV) rrepFailed(next routing.NodeID) {
	if a.Stopped() {
		return
	}
	a.sendRERR(a.invalidateVia(next))
}

// invalidateVia invalidates every valid route through the broken next
// hop and returns the list to report (in a.rerrBuf), in ascending
// destination order. AODV increments each invalidated destination's
// stored sequence number — the mechanism whose side effects the LDR paper
// analyzes.
func (a *AODV) invalidateVia(next routing.NodeID) []RERRDest {
	broken := a.rerrBuf[:0]
	for dst := range a.routes {
		if e := &a.routes[dst]; e.valid && e.next == next {
			e.seq++
			e.valid = false
			broken = append(broken, RERRDest{Dst: routing.NodeID(dst), Seq: e.seq})
		}
	}
	a.rerrBuf = broken[:0]
	return broken
}

// DataFailed implements routing.DataFailureHandler: the MAC exhausted its
// retries toward next, returning the packet's ownership to the protocol.
// Routes through next are invalidated and reported; locally originated
// traffic triggers rediscovery.
func (a *AODV) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
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

// --- route discovery ---

func (a *AODV) initialTTL(dst routing.NodeID) int {
	if e := a.route(dst); e != nil && e.hops > 0 {
		ttl := e.hops + ondemand.TTLIncrement
		if ttl > ondemand.NetDiameter {
			ttl = ondemand.NetDiameter
		}
		return ttl
	}
	return ondemand.TTLStart
}

// SendRequest implements ondemand.Requester: one RREQ for dst, answered
// within a round trip across the ring.
func (a *AODV) SendRequest(dst routing.NodeID, d *ondemand.Discovery) time.Duration {
	// "When node A sends a route request for a destination, it increases
	// the sequence number for itself as well."
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
	if e := a.route(dst); e != nil {
		q.DstSeq = e.seq
		q.UnknownSeq = false
	}
	a.node.Metrics().CountControlInitiate(metrics.RREQ)
	a.node.SendControl(routing.BroadcastID, q, nil)
	return ondemand.RingWait(d)
}

// NextAttempt implements ondemand.Requester: the expanding-ring schedule.
func (a *AODV) NextAttempt(_ routing.NodeID, d *ondemand.Discovery) bool {
	return ondemand.NextRing(d)
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (a *AODV) HandleControl(from routing.NodeID, msg routing.Message) {
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

func (a *AODV) handleRREQ(from routing.NodeID, q RREQ) {
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
		// RFC: update own sequence number to max(own, requested).
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

	e := a.route(q.Dst)
	canAnswer := e.active(now) &&
		(!q.UnknownSeq && e.seq >= q.DstSeq || q.UnknownSeq)
	if canAnswer {
		// Intermediate reply: the sequence-number ordering guarantees no
		// node upstream of the breakpoint can answer, because the origin
		// incremented the stored number past anything they hold.
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
	// Relays advertise the highest destination sequence number they know.
	if e != nil && (q.UnknownSeq || e.seq > q.DstSeq) {
		q.DstSeq = e.seq
		q.UnknownSeq = false
	}
	m := a.rreqPool.Get()
	*m = q
	a.Relay(m)
}

// reply unicasts a RREP toward origin along the reverse route.
func (a *AODV) reply(p RREP, origin routing.NodeID) {
	rev := a.route(origin)
	if !rev.active(a.node.Now()) {
		return
	}
	a.node.Metrics().CountControlInitiate(metrics.RREP)
	a.sendRREP(rev.next, p)
}

func (a *AODV) handleRREP(from routing.NodeID, p RREP) {
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

	// Forward along the reverse route toward the origin.
	rev := a.route(p.Origin)
	if !rev.active(now) {
		return
	}
	fwd := p
	fwd.HopCount++
	if e := a.route(p.Dst); e != nil {
		e.precursor(rev.next)
	}
	rev.refresh(now, ondemand.ActiveRouteTimeout)
	a.sendRREP(rev.next, fwd)
}

func (a *AODV) handleRERR(from routing.NodeID, e RERR) {
	if !a.AllowRERR(from, a.node.Now()) {
		return
	}
	propagate := a.rerrBuf[:0]
	for _, u := range e.Unreachable {
		ent := a.route(u.Dst)
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

// sendRERR copies a non-empty broken-destination list into a pooled
// RERR; the caller's slice (typically a.rerrBuf) is free for reuse on
// return.
func (a *AODV) sendRERR(broken []RERRDest) {
	if len(broken) == 0 {
		return
	}
	a.node.Metrics().CountControlInitiate(metrics.RERR)
	m := a.rerrPool.Get()
	m.Unreachable = append(m.Unreachable[:0], broken...)
	a.node.SendControl(routing.BroadcastID, m, nil)
}

// --- routing table updates ---

// route returns the entry for dst, or nil.
func (a *AODV) route(dst routing.NodeID) *entry {
	if uint(dst) >= uint(len(a.routes)) || !a.routes[dst].haveSeq {
		return nil
	}
	return &a.routes[dst]
}

// accept is the one place AODV accepts or refuses a route (draft-10
// §8.7): a route is taken when dst is unknown, when its sequence number
// is newer, or when it is equally new and the current route is unusable
// or longer. An accepted route is written into the returned entry except
// for its expiry, which the two callers set differently; a refused one
// returns nil.
func (a *AODV) accept(dst routing.NodeID, seq uint32, hops int, via routing.NodeID, now time.Duration) *entry {
	e := a.route(dst)
	if e == nil {
		a.routes = routing.Grow(a.routes, dst, a.node.NumNodes())
		e = &a.routes[dst]
	} else if better := seq > e.seq || (seq == e.seq && (!e.active(now) || hops < e.hops)); !better {
		return nil
	}
	e.seq, e.haveSeq = seq, true
	e.hops = hops
	e.next = via
	e.valid = true
	return e
}

// installReverse creates/updates the reverse route to a RREQ origin. An
// existing route's expiry is only ever extended.
func (a *AODV) installReverse(origin routing.NodeID, seq uint32, hops int, via routing.NodeID) {
	if origin == a.node.ID() {
		return
	}
	now := a.node.Now()
	if e := a.accept(origin, seq, hops+1, via, now); e != nil {
		e.refresh(now, ondemand.ActiveRouteTimeout)
	}
}

// installForward installs the route a RREP advertises, with the lifetime
// the RREP carries, and reports whether it was accepted.
func (a *AODV) installForward(p RREP, via routing.NodeID) bool {
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

func (e *entry) precursor(n routing.NodeID) {
	if i, found := slices.BinarySearch(e.precursors, n); !found {
		e.precursors = slices.Insert(e.precursors, i, n)
	}
}

// --- observability ---

// SnapshotTable implements routing.TableSnapshotter.
func (a *AODV) SnapshotTable() []routing.RouteEntry {
	return a.AppendTable(make([]routing.RouteEntry, 0, len(a.routes)))
}

// AppendTable implements routing.TableAppender.
func (a *AODV) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	now := a.node.Now()
	for dst := range a.routes {
		e := &a.routes[dst]
		if !e.haveSeq {
			continue
		}
		out = append(out, routing.RouteEntry{
			Dst:    routing.NodeID(dst),
			Next:   e.next,
			Metric: e.hops,
			SeqNo:  uint64(e.seq),
			Valid:  e.active(now),
		})
	}
	return out
}

// ReportSeqnos records every stored destination sequence number plus the
// node's own (Fig. 7: AODV's numbers inflate with mobility; LDR's do not).
func (a *AODV) ReportSeqnos(col *metrics.Collector) {
	col.ObserveSeqno(float64(a.ownSeq))
	for i := range a.routes {
		if a.routes[i].haveSeq {
			col.ObserveSeqno(float64(a.routes[i].seq))
		}
	}
}

// RouteTo exposes (next hop, hop count, ok) for tests and examples.
func (a *AODV) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	e := a.route(dst)
	if !e.active(a.node.Now()) {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

// OwnSeq exposes the node's own sequence number.
func (a *AODV) OwnSeq() uint32 { return a.ownSeq }
