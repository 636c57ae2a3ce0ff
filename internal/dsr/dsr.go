// Package dsr implements the Dynamic Source Routing protocol (Johnson,
// Maltz et al.), the source-routing baseline in the LDR paper.
//
// DSR avoids routing loops by carrying the complete route in every data
// packet: a route request accumulates the path it traverses, the reply
// returns that path to the origin, and data packets then specify every
// hop. Loop-freedom is structural, but the price is header overhead and a
// route cache whose staleness under mobility produces the sharp delivery
// degradation the paper's figures show.
//
// The DraftVariant switch approximates the two implementation generations
// evaluated in the paper: GloMoSim's draft-3 code (Figs. 2–5) and
// QualNet's draft-7 code (Fig. 6), which adds salvaging limits and
// discovery backoff and performs "slightly better, but still shows the
// same downward trend with increasing mobility".
package dsr

import (
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/runpool"
)

// Config holds what differs between the two DSR generations the paper
// evaluates; everything else is a constant, below or — the network
// diameter, the relay jitter and the duplicate-request window — shared
// with the other on-demand protocols in package ondemand.
type Config struct {
	DraftVariant int           // 3 (GloMoSim) or 7 (QualNet)
	MaxSalvage   int           // salvage attempts per packet (draft 7)
	BackoffBase  time.Duration // inter-attempt backoff (draft 7: exponential)
}

const (
	cacheCapacity    = 64                     // cached source routes
	cacheLifetime    = 300 * time.Second      // path expiry
	discoveryTimeout = 500 * time.Millisecond // per-attempt reply wait
	maxRetries       = 4                      // discovery attempts before giving up
)

// DefaultConfig returns the draft-3 configuration used for Figs. 2–5.
func DefaultConfig() Config {
	return Config{
		DraftVariant: 3,
		MaxSalvage:   0,
		BackoffBase:  500 * time.Millisecond,
	}
}

// Draft7Config returns the QualNet-style draft-7 configuration (Fig. 6):
// salvaging on, exponential discovery backoff.
func Draft7Config() Config {
	cfg := DefaultConfig()
	cfg.DraftVariant = 7
	cfg.MaxSalvage = 4
	cfg.BackoffBase = time.Second
	return cfg
}

// RREQ is a DSR route request with its accumulated route record.
type RREQ struct {
	Target routing.NodeID
	Origin routing.NodeID
	ReqID  uint32
	Route  []routing.NodeID // path traversed so far, Route[0] == Origin
	TTL    int
}

// Kind implements routing.Message.
func (*RREQ) Kind() metrics.ControlKind { return metrics.RREQ }

// Size implements routing.Message: the bytes on air, growing by one node
// id per recorded hop.
func (q *RREQ) Size() int { return rreqWireBase + wirePerHop*len(q.Route) }

// RREP carries the complete discovered route back to the origin. It is
// source-routed along the reversed request record.
type RREP struct {
	Origin routing.NodeID // RREQ origin (terminus of this reply)
	Target routing.NodeID // requested destination
	ReqID  uint32
	Route  []routing.NodeID // full path Origin..Target
	Index  int              // current position on the reversed return path
}

// Kind implements routing.Message.
func (*RREP) Kind() metrics.ControlKind { return metrics.RREP }

// Size implements routing.Message.
func (p *RREP) Size() int { return rrepWireBase + wirePerHop*len(p.Route) }

// RERR reports a broken source-route link to the packet's origin. It is
// source-routed back along the failed packet's traversed prefix.
type RERR struct {
	From, To routing.NodeID   // the broken link
	Origin   routing.NodeID   // who must learn about it
	Route    []routing.NodeID // return path to Origin
	Index    int
}

// Kind implements routing.Message.
func (*RERR) Kind() metrics.ControlKind { return metrics.RERR }

// Size implements routing.Message.
func (e *RERR) Size() int { return rerrWireBase + wirePerHop*len(e.Route) }

// Wire sizes of the fixed-layout prefixes (type byte and route-length
// count included); each field's width is listed in
// scenario.TestMessageLayouts.
const (
	rreqWireBase = 1 + 4 + 4 + 4 + 1 + 2
	rrepWireBase = 1 + 4 + 4 + 4 + 2 + 2
	rerrWireBase = 1 + 4 + 4 + 4 + 2 + 2
	wirePerHop   = 4
)

// DSR is one node's protocol instance.
type DSR struct {
	node *routing.Node
	cfg  Config

	cache   *pathCache
	reqSeen ondemand.Seen[struct{}] // RREQ duplicate cache

	ondemand.Discoveries // active discoveries and the data buffered behind them

	// Run-local message pools: wire messages are pooled pointers recycled
	// by the sending node once the MAC releases the frame.
	rreqPool runpool.Pool[RREQ]
	rrepPool runpool.Pool[RREP]
	rerrPool runpool.Pool[RERR]
}

var (
	_ routing.Protocol           = (*DSR)(nil)
	_ routing.Resetter           = (*DSR)(nil)
	_ routing.DataFailureHandler = (*DSR)(nil)
	_ routing.MessageRecycler    = (*DSR)(nil)
)

// New builds a DSR instance bound to a node.
func New(node *routing.Node, cfg Config) *DSR {
	d := &DSR{
		node:  node,
		cfg:   cfg,
		cache: newPathCache(node.ID(), cacheCapacity, cacheLifetime),
	}
	d.Discoveries = ondemand.NewDiscoveries(node, d)
	return d
}

// Start implements routing.Protocol. DSR is purely reactive.
func (d *DSR) Start() {}

// Reset implements routing.Resetter: a crash empties the route cache,
// the duplicate-request memory, buffered data, and active discoveries.
// DSR keeps no sequence numbers, so nothing needs stable storage; only
// the request-ID counter survives (see the note on AODV's Reset).
func (d *DSR) Reset() {
	d.Discoveries.Reset()
	d.cache = newPathCache(d.node.ID(), cacheCapacity, cacheLifetime)
	d.reqSeen.Reset()
}

// --- data plane ---

// Originate implements routing.Protocol.
func (d *DSR) Originate(pkt *routing.DataPacket) {
	now := d.node.Now()
	if route := d.cache.find(pkt.Dst, now); route != nil {
		pkt.SourceRoute = route
		pkt.SRIndex = 0
		d.transmitAlongRoute(pkt)
		return
	}
	d.Push(pkt)
	d.Solicit(pkt.Dst, ring0TTL)
}

// HandleData implements routing.Protocol.
func (d *DSR) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	me := d.node.ID()
	if pkt.Dst == me {
		d.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		d.node.DropData(pkt, routing.DropTTL)
		return
	}
	// Advance along the source route. The packet names us at SRIndex+1.
	if pkt.SRIndex+1 >= len(pkt.SourceRoute) || pkt.SourceRoute[pkt.SRIndex+1] != me {
		d.node.DropData(pkt, routing.DropMalformed) // malformed or duplicated header
		return
	}
	pkt.SRIndex++
	// Relays learn the route suffix ahead of them for free.
	d.cache.add(pkt.SourceRoute[pkt.SRIndex:], d.node.Now())
	d.transmitAlongRoute(pkt)
}

// transmitAlongRoute sends pkt to the next node named in its source route.
func (d *DSR) transmitAlongRoute(pkt *routing.DataPacket) {
	if pkt.SRIndex+1 >= len(pkt.SourceRoute) {
		d.node.DropData(pkt, routing.DropMalformed)
		return
	}
	next := pkt.SourceRoute[pkt.SRIndex+1]
	d.node.SendData(next, pkt)
}

// DataFailed implements routing.DataFailureHandler: the MAC exhausted its
// retries on the next hop, so route maintenance takes the packet back:
// purge the link, notify the origin, and (draft 7) salvage the packet
// from the local cache.
func (d *DSR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if d.Stopped() {
		return
	}
	me := d.node.ID()
	d.cache.removeLink(me, next)

	if pkt.Src != me {
		d.sendRERR(pkt, next)
	}

	// Salvage: re-route from the local cache if the variant allows it.
	if d.cfg.MaxSalvage > 0 && pkt.Salvaged < d.cfg.MaxSalvage {
		if route := d.cache.find(pkt.Dst, d.node.Now()); route != nil {
			pkt.Salvaged++
			pkt.SourceRoute = route
			pkt.SRIndex = 0
			d.transmitAlongRoute(pkt)
			return
		}
	}
	if pkt.Src == me {
		d.Push(pkt)
		d.Solicit(pkt.Dst, ring0TTL)
		return
	}
	d.node.DropData(pkt, routing.DropLinkBreak)
}

// sendRERR reports the broken link to the packet's origin along the
// reversed traversed prefix.
func (d *DSR) sendRERR(pkt *routing.DataPacket, next routing.NodeID) {
	me := d.node.ID()
	// Reverse of SourceRoute[0..SRIndex]: me back to the origin.
	ret := reverse(pkt.SourceRoute[:pkt.SRIndex+1])
	if len(ret) < 2 || ret[0] != me {
		return
	}
	e := RERR{From: me, To: next, Origin: pkt.Src, Route: ret, Index: 0}
	d.node.Metrics().CountControlInitiate(metrics.RERR)
	d.emitRERR(ret[1], e)
}

// emitRREP and emitRERR copy a message value into a pooled wire message
// (reusing its route capacity) and hand it to the MAC; the node recycles
// it via RecycleMessage once the frame is released.
func (d *DSR) emitRREP(to routing.NodeID, p RREP) {
	m := d.rrepPool.Get()
	route := m.Route
	*m = p
	m.Route = append(route[:0], p.Route...)
	d.node.SendControl(to, m, nil)
}

func (d *DSR) emitRERR(to routing.NodeID, e RERR) {
	m := d.rerrPool.Get()
	route := m.Route
	*m = e
	m.Route = append(route[:0], e.Route...)
	d.node.SendControl(to, m, nil)
}

// RecycleMessage implements routing.MessageRecycler.
func (d *DSR) RecycleMessage(msg routing.Message) {
	switch m := msg.(type) {
	case *RREQ:
		m.Route = m.Route[:0]
		d.rreqPool.Put(m)
	case *RREP:
		m.Route = m.Route[:0]
		d.rrepPool.Put(m)
	case *RERR:
		m.Route = m.Route[:0]
		d.rerrPool.Put(m)
	}
}

func (d *DSR) flushPending(dst routing.NodeID) {
	if d.Len(dst) == 0 {
		return
	}
	route := d.cache.find(dst, d.node.Now())
	if route == nil {
		return
	}
	for _, pkt := range d.Take(dst) {
		pkt.SourceRoute = append([]routing.NodeID(nil), route...)
		pkt.SRIndex = 0
		d.transmitAlongRoute(pkt)
	}
}

// --- route discovery ---

// ring0TTL is the radius of a discovery's first attempt: a
// non-propagating request only neighbors hear. Every later attempt
// floods network-wide.
const ring0TTL = 1

// SendRequest implements ondemand.Requester: one RREQ whose route record
// starts here. Retries wait out a backoff on top of the reply wait.
func (d *DSR) SendRequest(dst routing.NodeID, disc *ondemand.Discovery) time.Duration {
	me := d.node.ID()
	q := d.rreqPool.Get()
	*q = RREQ{
		Target: dst,
		Origin: me,
		ReqID:  disc.ID,
		Route:  append(q.Route[:0], me),
		TTL:    disc.TTL,
	}
	d.node.Metrics().CountControlInitiate(metrics.RREQ)
	d.node.SendControl(routing.BroadcastID, q, nil)

	wait := discoveryTimeout
	if disc.Retries > 0 {
		backoff := d.cfg.BackoffBase
		if d.cfg.DraftVariant >= 7 {
			backoff <<= uint(disc.Retries - 1) // exponential backoff
		}
		wait += backoff
	}
	return wait
}

// NextAttempt implements ondemand.Requester: up to maxRetries
// network-wide floods follow the ring-0 request.
func (d *DSR) NextAttempt(_ routing.NodeID, disc *ondemand.Discovery) bool {
	disc.Retries++
	disc.TTL = ondemand.NetDiameter
	return disc.Retries <= maxRetries
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (d *DSR) HandleControl(from routing.NodeID, msg routing.Message) {
	if d.Stopped() {
		return
	}
	// A received message is read-only and valid only during the call.
	switch m := msg.(type) {
	case *RREQ:
		d.handleRREQ(*m)
	case *RREP:
		d.handleRREP(*m)
	case *RERR:
		d.handleRERR(*m)
	}
}

func (d *DSR) handleRREQ(q RREQ) {
	me := d.node.ID()
	if q.Origin == me || hasNode(q.Route, me) {
		return
	}
	key := ondemand.ReqKey{Origin: q.Origin, ID: q.ReqID}
	now := d.node.Now()
	if d.reqSeen.Get(key, now) != nil {
		return
	}
	d.reqSeen.Add(key, now)

	// Learn the reverse of the accumulated record (symmetric links).
	d.cache.add(append([]routing.NodeID{me}, reverse(q.Route)...), now)

	route := append(append([]routing.NodeID(nil), q.Route...), me)

	if q.Target == me {
		d.reply(RREP{Origin: q.Origin, Target: me, ReqID: q.ReqID, Route: route})
		return
	}

	// Intermediate nodes answer from their cache.
	if tail := d.cache.find(q.Target, now); tail != nil {
		// Splice accumulated record + cached remainder, rejecting
		// routes that would visit a node twice.
		if spliced := splice(route, tail); spliced != nil {
			d.reply(RREP{Origin: q.Origin, Target: q.Target, ReqID: q.ReqID, Route: spliced})
			return
		}
	}

	if q.TTL <= 1 {
		return
	}
	m := d.rreqPool.Get()
	*m = RREQ{Target: q.Target, Origin: q.Origin, ReqID: q.ReqID,
		Route: append(m.Route[:0], route...), TTL: q.TTL - 1}
	d.Relay(m)
}

// reply sends a RREP source-routed along the reversed discovered route.
func (d *DSR) reply(p RREP) {
	me := d.node.ID()
	ret := reverse(p.Route)
	// Trim the return path to start at this node (the replier may be an
	// intermediate cache hit partway along the route).
	start := -1
	for i, n := range ret {
		if n == me {
			start = i
			break
		}
	}
	if start < 0 || start+1 >= len(ret) {
		return
	}
	p.Index = start
	d.node.Metrics().CountControlInitiate(metrics.RREP)
	d.emitRREP(ret[start+1], p)
}

func (d *DSR) handleRREP(p RREP) {
	me := d.node.ID()
	now := d.node.Now()
	ret := reverse(p.Route)

	if p.Origin == me {
		d.cache.add(p.Route, now)
		d.node.Metrics().RREPUsable++
		d.Finish(p.Target)
		d.flushPending(p.Target)
		return
	}

	// Relays on the return path learn the downstream portion of the route.
	idx := p.Index + 1
	if idx >= len(ret) || ret[idx] != me {
		return
	}
	// From me, the discovered route reaches the target along ret[:idx+1]
	// reversed. Cache the forward suffix we now know.
	d.cache.add(reverse(ret[:idx+1]), now)
	d.node.Metrics().RREPUsable++
	if idx+1 >= len(ret) {
		return
	}
	fwd := p
	fwd.Index = idx
	d.emitRREP(ret[idx+1], fwd)
}

func (d *DSR) handleRERR(e RERR) {
	me := d.node.ID()
	d.cache.removeLink(e.From, e.To)
	if e.Origin == me {
		return
	}
	idx := e.Index + 1
	if idx >= len(e.Route) || e.Route[idx] != me {
		return
	}
	if idx+1 >= len(e.Route) {
		return
	}
	fwd := e
	fwd.Index = idx
	d.emitRERR(e.Route[idx+1], fwd)
}

// --- helpers ---

// CachedRoute exposes the cached route to dst, if any (for tests).
func (d *DSR) CachedRoute(dst routing.NodeID) []routing.NodeID {
	return d.cache.find(dst, d.node.Now())
}

func reverse(p []routing.NodeID) []routing.NodeID {
	out := make([]routing.NodeID, len(p))
	for i, n := range p {
		out[len(p)-1-i] = n
	}
	return out
}

// splice joins an accumulated record with a cached tail (head's last node
// == tail's first node), returning nil if any node would repeat.
func splice(head, tail []routing.NodeID) []routing.NodeID {
	if len(head) == 0 || len(tail) == 0 || head[len(head)-1] != tail[0] {
		return nil
	}
	seen := make(map[routing.NodeID]struct{}, len(head)+len(tail))
	for _, n := range head {
		if _, dup := seen[n]; dup {
			return nil
		}
		seen[n] = struct{}{}
	}
	out := append([]routing.NodeID(nil), head...)
	for _, n := range tail[1:] {
		if _, dup := seen[n]; dup {
			return nil
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	return out
}
