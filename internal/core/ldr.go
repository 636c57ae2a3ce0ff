package core

import (
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/runpool"
)

// Config holds what an experiment varies about LDR: the paper's §4
// optimizations and the multipath extension, each switched by an ablation
// row, and the first ring's radius. Every other timer and bound is a
// constant (below, and in package ondemand). The zero value is not valid;
// use DefaultConfig.
type Config struct {
	TTLStart int // expanding-ring initial TTL (the no-ring ablation floods at once)

	MultipleRREPs   bool // relay later RREPs carrying stronger invariants
	RequestAsError  bool // treat a successor's RREQ as evidence of a broken route
	ReducedDistance bool // advertise an answering distance below fd
	MinLifetime     bool // do not answer with a nearly expired route
	OptimalTTL      bool // derive the initial ring TTL from known distance

	// Multipath keeps up to maxAltSuccessors additional loop-free
	// successors per destination and fails over to them on link breaks
	// without rediscovery (the labeled-distance multipath extension).
	Multipath bool
}

const (
	localAddTTL   = 2   // slack added to distance-derived TTLs
	reducedFactor = 0.8 // answering-distance factor (paper: 0.8)
)

// DefaultConfig returns the configuration used for the paper-reproduction
// experiments, with all optimizations enabled.
func DefaultConfig() Config {
	return Config{
		TTLStart: ondemand.TTLStart,

		MultipleRREPs:   true,
		RequestAsError:  true,
		ReducedDistance: true,
		MinLifetime:     true,
		OptimalTTL:      true,

		Multipath: false, // the paper's LDR is single-path
	}
}

// reqState is the engaged-state record for one computation (A, ID_A):
// the reverse path hop plus bookkeeping for reply relaying (Theorem 3's
// computation tree is exactly this cache).
type reqState struct {
	lastHop routing.NodeID

	relayedSeq  Seqno // strongest invariants relayed so far
	relayedDist int
	relayed     bool // at least one RREP relayed
	unicastFwd  bool // the unicast reset leg has passed through here
	replied     bool // this node answered (destination or SDC reply)

	altHops []routing.NodeID // multipath: extra reverse hops already answered, ascending
}

// LDR is one node's instance of the labeled distance routing protocol.
type LDR struct {
	node *routing.Node
	cfg  Config

	ownSeq  Seqno
	routes  table
	reqSeen ondemand.Seen[reqState]

	ondemand.Discoveries // active computations and the data buffered behind them
	ondemand.Limits      // per-neighbour RREQ/RERR admission

	// Free lists for outgoing control messages (recycled by the node
	// layer once the carrying frame is released) and a scratch buffer
	// for collecting broken destinations before they are copied into a
	// pooled RERR.
	rreqPool runpool.Pool[RREQ]
	rrepPool runpool.Pool[RREP]
	rerrPool runpool.Pool[RERR]
	rerrBuf  []RERRDest
}

var (
	_ routing.Protocol           = (*LDR)(nil)
	_ routing.TableSnapshotter   = (*LDR)(nil)
	_ routing.TableAppender      = (*LDR)(nil)
	_ routing.Resetter           = (*LDR)(nil)
	_ routing.DataFailureHandler = (*LDR)(nil)
	_ routing.MessageRecycler    = (*LDR)(nil)
)

// New builds an LDR instance bound to a node.
func New(node *routing.Node, cfg Config) *LDR {
	l := &LDR{
		node:   node,
		cfg:    cfg,
		ownSeq: NewSeqno(1, 0),
		Limits: ondemand.NewLimits(node),
	}
	l.Discoveries = ondemand.NewDiscoveries(node, l)
	return l
}

// Start implements routing.Protocol. LDR is purely reactive: nothing
// happens until data needs a route.
func (l *LDR) Start() {}

// Reset implements routing.Resetter: a crash discards everything volatile
// — successors, alternates, the engaged-computation cache, buffered data,
// and every active discovery — but persists the label store: the node's
// own sequence number AND the (sn, fd) labels of every known destination.
// §5 of the paper keeps the own number in stable storage (its timestamp
// component makes even that cheap: a reboot with a fresh counter and a
// newer timestamp still compares higher), and the per-destination labels
// belong there with it, because they ARE the loop-freedom invariant:
// neighbors that chose this node as successor did so against its old
// labels, and a relay that re-learned routes from scratch could accept an
// equal-sequence-number route whose feasible distance has regressed —
// under lossy channels (where the request-as-error RREQ can miss the
// upstream node) that regression re-creates exactly the post-reboot loop
// AODV exhibits (see internal/fault). Keeping the labels makes every
// post-reboot acceptance pass NDC against pre-crash state, so the global
// ordering criterion survives the crash. The request-ID counter also
// survives (see ondemand.Discoveries.Reset).
func (l *LDR) Reset() {
	l.Discoveries.Reset()
	l.Limits.Reset()
	for i := range l.routes {
		l.routes[i].invalidate()
		l.routes[i].alts = nil
	}
	l.reqSeen.Reset()
}

// OwnSeq exposes the node's own sequence number (for tests and Fig. 7).
func (l *LDR) OwnSeq() Seqno { return l.ownSeq }

// --- data plane ---

// Originate implements routing.Protocol.
func (l *LDR) Originate(pkt *routing.DataPacket) {
	l.sendOrQueue(pkt)
}

// HandleData implements routing.Protocol.
func (l *LDR) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == l.node.ID() {
		l.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		l.node.DropData(pkt, routing.DropTTL)
		return
	}
	// Receiving data from a neighbor implies it uses us as successor;
	// keep the downstream route alive.
	l.sendOrQueue(pkt)
}

// sendOrQueue forwards pkt along the active route, or (at the origin)
// buffers it and solicits a route. Relays without a route drop the packet
// and report the error, as the origin will rediscover.
func (l *LDR) sendOrQueue(pkt *routing.DataPacket) {
	now := l.node.Now()
	e := l.routes.get(pkt.Dst)
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

// flushPending drains the buffered packets for dst after a route appears.
func (l *LDR) flushPending(dst routing.NodeID) {
	for _, pkt := range l.Take(dst) {
		l.sendOrQueue(pkt)
	}
}

// RecycleMessage implements routing.MessageRecycler: the node layer hands
// back a control message once its frame is fully released.
func (l *LDR) RecycleMessage(msg routing.Message) {
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

// sendRREQ, sendRREP: wrap a handler-built value in a pooled message for
// the wire. The pooled object belongs to the frame until recycled.
func (l *LDR) sendRREQ(to routing.NodeID, q RREQ) {
	m := l.rreqPool.Get()
	*m = q
	l.node.SendControl(to, m, nil)
}

func (l *LDR) sendRREP(to routing.NodeID, p RREP) {
	m := l.rrepPool.Get()
	*m = p
	l.node.SendControl(to, m, func() { l.rrepFailed(to) })
}

// rrepFailed handles a MAC-failed RREP unicast toward next: lastHop was
// recorded from a broadcast RREQ, which needs no return link, so on a
// one-way link the reply dies after its MAC retries and the reverse path
// is known-dead. Run the same route-state transitions a data-plane link
// break triggers — drop fallback successors via next, fail over or
// invalidate with a RERR — minus the packet salvage (there is no data
// packet here). Labels are untouched, so NDC feasibility is unaffected.
func (l *LDR) rrepFailed(next routing.NodeID) {
	if l.Stopped() {
		return
	}
	l.invalidateVia(next)
}

// invalidateVia runs the route-state transitions of a broken link to
// next: fallback successors through it are dropped, and every route
// through it fails over to an alternate or is invalidated (keeping sn and
// fd — LDR's reset discipline means no sequence numbers are touched) and
// reported in one RERR, in ascending destination order.
func (l *LDR) invalidateVia(next routing.NodeID) {
	broken := l.rerrBuf[:0]
	for dst := range l.routes {
		e := &l.routes[dst]
		e.dropAlt(next)
		if e.valid && e.next == next {
			if l.cfg.Multipath && e.promoteAlt(l.node.Now()) {
				continue // failover without rediscovery or RERR
			}
			e.invalidate()
			broken = append(broken, RERRDest{Dst: routing.NodeID(dst), Seq: e.seq})
		}
	}
	l.rerrBuf = broken[:0]
	l.sendRERR(broken)
}

// DataFailed implements routing.DataFailureHandler: the MAC exhausted its
// retries toward next, returning the packet's ownership to the protocol.
// Every route through next is invalidated and reported, and locally
// originated traffic triggers rediscovery.
func (l *LDR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if l.Stopped() {
		return
	}
	l.invalidateVia(next)
	if e := l.routes.get(pkt.Dst); l.cfg.Multipath && e.active(l.node.Now()) {
		// A fallback successor took over; resend along it immediately.
		l.sendOrQueue(pkt)
		return
	}
	if pkt.Src == l.node.ID() {
		// Buffer the packet and reacquire the route.
		l.Push(pkt)
		l.Solicit(pkt.Dst, l.initialTTL(pkt.Dst))
	} else {
		l.node.DropData(pkt, routing.DropLinkBreak)
	}
}

// --- route discovery: Procedure 1 (Initiate Solicitation) ---

// initialTTL applies the optimal-TTL optimization: a node that recently
// had a route needs to reach only slightly past the old distance.
func (l *LDR) initialTTL(dst routing.NodeID) int {
	e := l.routes.get(dst)
	if l.cfg.OptimalTTL && e != nil && e.dist < Infinity {
		ttl := e.dist - l.answerDist(e) + localAddTTL
		if ttl < l.cfg.TTLStart {
			ttl = l.cfg.TTLStart
		}
		if ttl > ondemand.NetDiameter {
			ttl = ondemand.NetDiameter
		}
		return ttl
	}
	return l.cfg.TTLStart
}

// answerDist computes the answering distance carried in a RREQ: the
// node's feasible distance, optionally reduced (×0.8, floored, minimum 1)
// so that slightly longer loop-free paths remain answerable under churn.
func (l *LDR) answerDist(e *entry) int {
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

// SendRequest implements ondemand.Requester: one RREQ for dst carrying
// this node's labels, answered within a round trip across the ring.
func (l *LDR) SendRequest(dst routing.NodeID, d *ondemand.Discovery) time.Duration {
	e := l.routes.get(dst)
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

// NextAttempt implements ondemand.Requester with the expanding-ring
// schedule, unmodified.
func (l *LDR) NextAttempt(_ routing.NodeID, d *ondemand.Discovery) bool {
	return ondemand.NextRing(d)
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (l *LDR) HandleControl(from routing.NodeID, msg routing.Message) {
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

// handleRREQ implements Procedure 2 (Relay Solicitation) together with
// the destination behaviour and SDC replies.
func (l *LDR) handleRREQ(from routing.NodeID, q RREQ) {
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
		// Already engaged: a node enters a computation at most once
		// (Theorem 3). The only second touch allowed is relaying the
		// unicast reset leg toward the destination, which follows the
		// loop-free successor graph rather than the flood tree.
		if q.D && !st.unicastFwd && !st.replied && q.Dst != me {
			st.unicastFwd = true
			l.forwardUnicastRREQ(q)
		} else if q.D && q.Dst == me && !st.replied {
			st.replied = true
			l.destinationReply(q, st)
		} else if l.cfg.Multipath && q.Dst == me && st.replied {
			// Multipath extension: a duplicate copy that arrived over a
			// different last hop reveals a node-disjoint reverse branch.
			// Answer it too (bounded by MaxAltSuccessors) so upstream
			// nodes can learn loop-free alternates.
			l.maybeAltReply(q, st, from)
		}
		return
	}
	st = l.reqSeen.Add(key, now)
	st.lastHop = from

	// The RREQ advertises a route back to its origin; try to install it.
	// The unicast reset leg (D bit) is NOT an advertisement: it travels
	// the successor path toward the destination, so its Dist describes
	// the original flood path, not the state of the neighbor relaying it
	// — installing a route from it would break the ordering criterion.
	reverseOK := false
	if !q.D {
		reverseOK = l.acceptAdvertisement(q.Origin, q.OriginSeq, q.Dist, from)
	}
	if !reverseOK && !l.routes.get(q.Origin).active(now) {
		q.N = true
	}

	// Request-as-error: a solicitation from our own successor for the very
	// destination it serves means its route is gone.
	if l.cfg.RequestAsError {
		if e := l.routes.get(q.Dst); e != nil && e.valid && e.next == from {
			if !q.HaveDstSeq || q.AnsDist > e.dist-1 {
				e.invalidate()
			}
		}
	}

	if q.Dst == me {
		st.replied = true
		l.destinationReply(q, st)
		return
	}

	e := l.routes.get(q.Dst)
	if l.sdc(e, q, now) {
		if !q.T {
			st.replied = true
			l.sendReply(q, e, st, now)
			return
		}
		// SDC holds but a reset is required: unicast the request the rest
		// of the way so the destination can raise its sequence number.
		st.unicastFwd = true
		uq := l.updateInvariants(q, e)
		uq.D = true
		uq.TTL = e.dist + localAddTTL
		l.forwardUnicastRREQ(uq)
		return
	}

	// Relay the flood.
	q.TTL--
	if q.TTL <= 0 {
		return
	}
	m := l.rreqPool.Get()
	*m = l.updateInvariants(q, e)
	l.Relay(m)
}

// sdc evaluates the Start Distance Condition at this node for a
// solicitation (ignoring the T bit, which the caller inspects):
//
//	sn = sn#  ∧  d < fd#           (3, with the answering distance)
//	sn > sn#                       (4)
//
// plus the minimum-lifetime optimization: nearly expired routes do not
// answer.
func (l *LDR) sdc(e *entry, q RREQ, now time.Duration) bool {
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

// updateInvariants applies equations (5)–(8) to produce the relayed
// solicitation: the sequence number and feasible distance are strengthened
// with this node's state, the traversed distance grows by the link cost,
// and the T bit tracks FDC.
func (l *LDR) updateInvariants(q RREQ, e *entry) RREQ {
	q.Dist++ // eq. (7): the reverse-path advertisement grew one hop
	if e == nil {
		return q
	}
	switch {
	case !q.HaveDstSeq || e.seq > q.DstSeq:
		// eq. (5)/(6): our state supersedes the request's; any reply now
		// acts as a path reset, clearing T (eq. 8, first case).
		q.HaveDstSeq = true
		q.DstSeq = e.seq
		q.FD = e.fd
		q.AnsDist = l.answerDist(e)
		q.T = false
	case e.seq == q.DstSeq && e.fd < q.FD:
		// eq. (6): strengthen the minimum; FDC satisfied, T relayed as-is.
		q.FD = e.fd
		if ad := l.answerDist(e); ad < q.AnsDist {
			q.AnsDist = ad
		}
	case e.seq == q.DstSeq:
		// FDC violated (fd ≥ fd#): require a path reset (eq. 8, third case).
		q.T = true
	}
	// e.seq < q.DstSeq leaves the solicitation untouched: our stale state
	// cannot constrain a newer-numbered path.
	return q
}

// forwardUnicastRREQ sends the reset leg toward the destination along the
// successor path. If the route evaporated, the leg dies and the origin's
// retry timer recovers.
func (l *LDR) forwardUnicastRREQ(q RREQ) {
	now := l.node.Now()
	e := l.routes.get(q.Dst)
	if !e.active(now) {
		return
	}
	q.TTL--
	if q.TTL <= 0 {
		return
	}
	l.sendRREQ(e.next, q)
}

// destinationReply implements the destination's reset duty: raise the
// sequence number when the path needs resetting, then answer.
func (l *LDR) destinationReply(q RREQ, st *reqState) {
	now := l.node.Now()
	if q.T && q.HaveDstSeq && l.ownSeq <= q.DstSeq {
		// Only the destination may do this (eq. 8 discussion; the reply
		// resets feasible distances along the reverse path).
		l.ownSeq = l.ownSeq.Next(now)
	} else if q.HaveDstSeq && q.DstSeq > l.ownSeq {
		// A stale universe believes a higher number than ours (possible
		// only across reboots); jump past it before answering.
		l.ownSeq = NewSeqno(q.DstSeq.Timestamp(), q.DstSeq.Counter()).Next(now)
	}
	l.replyAsDestination(q, st.lastHop)
}

// replyAsDestination answers q with this node's own labels, toward to.
func (l *LDR) replyAsDestination(q RREQ, to routing.NodeID) {
	l.node.Metrics().CountControlInitiate(metrics.RREP)
	l.sendRREP(to, RREP{
		Dst:      l.node.ID(),
		DstSeq:   l.ownSeq,
		Origin:   q.Origin,
		ReqID:    q.ReqID,
		Dist:     0,
		Lifetime: ondemand.ActiveRouteTimeout,
		N:        q.N,
	})
}

// maybeAltReply sends an additional destination RREP along an alternate
// reverse hop for the same computation (multipath extension).
func (l *LDR) maybeAltReply(q RREQ, st *reqState, from routing.NodeID) {
	if from == st.lastHop || len(st.altHops) >= maxAltSuccessors {
		return
	}
	i, found := slices.BinarySearch(st.altHops, from)
	if found {
		return
	}
	st.altHops = slices.Insert(st.altHops, i, from)
	l.replyAsDestination(q, from)
}

// sendReply issues an SDC advertisement from an intermediate node engaged
// in q's computation as st.
func (l *LDR) sendReply(q RREQ, e *entry, st *reqState, now time.Duration) {
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

// handleRREP implements Procedure 4 (Relay Advertisement).
func (l *LDR) handleRREP(from routing.NodeID, p RREP) {
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
		// Terminus: the computation (me, ReqID) ends in success if the
		// advertisement was feasible here.
		if accepted {
			l.Finish(p.Dst)
		}
		if p.N && accepted {
			// Reverse path incomplete: raise our own number so relays can
			// accept the rebuilt reverse advertisements, and probe again.
			l.ownSeq = l.ownSeq.Next(now)
		}
		return
	}

	st := l.reqSeen.Get(ondemand.ReqKey{Origin: p.Origin, ID: p.ReqID}, now)
	if st == nil {
		return // not engaged in this computation; nowhere to relay
	}
	e := l.routes.get(p.Dst)
	if !e.active(now) {
		// Cannot issue a fresh advertisement without an active route; the
		// advertisement dies here (paper: "the relay cannot issue a new
		// advertisement").
		return
	}
	// Procedure 4: relay with our own (possibly stronger) invariants.
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
		// Only strictly stronger advertisements may follow earlier ones.
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

// handleRERR invalidates routes whose next hop reported them broken and
// propagates the error for entries that actually changed.
func (l *LDR) handleRERR(from routing.NodeID, e RERR) {
	if !l.AllowRERR(from, l.node.Now()) {
		return
	}
	propagate := l.rerrBuf[:0]
	for _, u := range e.Unreachable {
		ent := l.routes.get(u.Dst)
		if ent == nil {
			continue
		}
		ent.dropAlt(from)
		if ent.valid && ent.next == from && ent.seq <= u.Seq {
			if l.cfg.Multipath && ent.promoteAlt(l.node.Now()) {
				continue
			}
			ent.invalidate()
			propagate = append(propagate, RERRDest{Dst: u.Dst, Seq: ent.seq})
		}
	}
	l.rerrBuf = propagate[:0]
	l.sendRERR(propagate)
}

// sendRERR copies a non-empty broken-destination list into a pooled
// RERR; the caller's slice (typically l.rerrBuf) is free for reuse on
// return.
func (l *LDR) sendRERR(broken []RERRDest) {
	if len(broken) == 0 {
		return
	}
	l.node.Metrics().CountControlInitiate(metrics.RERR)
	m := l.rerrPool.Get()
	m.Unreachable = append(m.Unreachable[:0], broken...)
	l.node.SendControl(routing.BroadcastID, m, nil)
}

// acceptAdvertisement applies NDC + Procedure 3 for an advertisement of
// dst (advSeq, advDist) heard from via. It returns whether the
// advertisement was usable (installed or refreshed a route).
func (l *LDR) acceptAdvertisement(dst routing.NodeID, advSeq Seqno, advDist int, via routing.NodeID) bool {
	if dst == l.node.ID() || via == routing.BroadcastID {
		return false
	}
	now := l.node.Now()
	e := l.routes.get(dst)
	if e == nil {
		l.routes = routing.Grow(l.routes, dst, l.node.NumNodes())
		l.routes[dst] = newEntry(advSeq, advDist, via, 1, now, ondemand.ActiveRouteTimeout)
		return true
	}
	if !e.ndc(advSeq, advDist) {
		// The feasibility condition is LDR's whole defense against lying
		// neighbors: an advertisement that does not beat the stored label
		// — a replayed stale (sn, fd), a forged distance at an old number
		// — is refused here, and the refusal is counted so attack runs
		// can prove forgeries were rejected rather than merely unlucky.
		l.node.Metrics().FeasibilityRejections++
		return false
	}
	// Stability rule (paper §2.1 note): with an active route and an equal
	// sequence number, keep the current successor unless the newcomer is
	// strictly shorter.
	if e.active(now) && advSeq == e.seq && via != e.next && advDist+1 >= e.dist {
		if l.cfg.Multipath {
			// The advertisement is loop-free even though it loses the
			// primary selection: remember it as a fallback successor.
			e.rememberAlt(via, advSeq, advDist, now)
		}
		return false
	}
	e.update(advSeq, advDist, via, 1, now, ondemand.ActiveRouteTimeout)
	return true
}

// seqFor returns the stored sequence number for dst (zero when unknown).
func (l *LDR) seqFor(dst routing.NodeID) Seqno {
	if e := l.routes.get(dst); e != nil {
		return e.seq
	}
	return 0
}

// --- observability ---

// SnapshotTable implements routing.TableSnapshotter.
func (l *LDR) SnapshotTable() []routing.RouteEntry {
	return l.AppendTable(make([]routing.RouteEntry, 0, len(l.routes)))
}

// AppendTable implements routing.TableAppender.
func (l *LDR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	now := l.node.Now()
	for dst := range l.routes {
		e := &l.routes[dst]
		if !e.known {
			continue
		}
		out = append(out, routing.RouteEntry{
			Dst:    routing.NodeID(dst),
			Next:   e.next,
			Metric: e.dist,
			SeqNo:  uint64(e.seq),
			FD:     e.fd,
			Valid:  e.active(now),
		})
	}
	return out
}

// ReportSeqnos records the counter component of every known destination
// sequence number plus the node's own, feeding Fig. 7.
func (l *LDR) ReportSeqnos(col *metrics.Collector) {
	col.ObserveSeqno(float64(l.ownSeq.Counter()))
	for i := range l.routes {
		if l.routes[i].known {
			col.ObserveSeqno(float64(l.routes[i].seq.Counter()))
		}
	}
}

// RouteTo exposes (next hop, distance, ok) for examples and tests.
func (l *LDR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	e := l.routes.get(dst)
	if !e.active(l.node.Now()) {
		return 0, 0, false
	}
	return e.next, e.dist, true
}

// FeasibleDistance exposes the fd label for dst (Infinity when unknown),
// used by the invariants example and property tests.
func (l *LDR) FeasibleDistance(dst routing.NodeID) int {
	if e := l.routes.get(dst); e != nil {
		return e.fd
	}
	return Infinity
}
