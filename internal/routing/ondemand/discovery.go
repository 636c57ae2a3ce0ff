package ondemand

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// MaxQueuedPerDest bounds the data packets buffered per destination
// while its route is being discovered.
const MaxQueuedPerDest = 16

// Pending buffers the data packets an origin holds while it discovers a
// route, one bounded FIFO per destination. Whole-buffer operations visit
// destinations in ascending NodeID and packets in queue order, so the
// drop events of a crash replay identically.
type Pending struct {
	node *routing.Node
	q    map[routing.NodeID][]*routing.DataPacket // allocated on first Push
}

// Push appends pkt to its destination's queue. A full queue drops its
// head first, accounted as DropQueueOverflow.
func (p *Pending) Push(pkt *routing.DataPacket) {
	q := p.q[pkt.Dst]
	if len(q) >= MaxQueuedPerDest {
		p.node.DropData(q[0], routing.DropQueueOverflow)
		q = q[1:]
	}
	if p.q == nil {
		p.q = make(map[routing.NodeID][]*routing.DataPacket)
	}
	p.q[pkt.Dst] = append(q, pkt)
}

// Len returns the number of packets buffered for dst.
func (p *Pending) Len(dst routing.NodeID) int { return len(p.q[dst]) }

// Take removes and returns dst's queue, for the caller to send. Packets
// the caller pushes back land in a fresh queue.
func (p *Pending) Take(dst routing.NodeID) []*routing.DataPacket {
	q := p.q[dst]
	delete(p.q, dst)
	return q
}

// Drop discards dst's queue, accounting every packet with reason.
func (p *Pending) Drop(dst routing.NodeID, reason routing.DropReason) {
	for _, pkt := range p.Take(dst) {
		p.node.DropData(pkt, reason)
	}
}

// dsts returns the buffered destinations in ascending order.
func (p *Pending) dsts() []routing.NodeID {
	out := make([]routing.NodeID, 0, len(p.q))
	for dst := range p.q {
		out = append(out, dst)
	}
	slices.Sort(out)
	return out
}

// WalkHeldData implements routing.HeldDataWalker for the embedding
// protocol: the only data packets an on-demand protocol holds are those
// buffered while route discovery runs.
func (p *Pending) WalkHeldData(fn func(*routing.DataPacket)) {
	for _, dst := range p.dsts() {
		for _, pkt := range p.q[dst] {
			fn(pkt)
		}
	}
}

// appendState serializes the buffer for a routing.ModelStater encoding:
// destinations sorted by their mapped identifier, packets in queue order.
func (p *Pending) appendState(out []byte, mapID func(routing.NodeID) routing.NodeID) []byte {
	type row struct {
		dst routing.NodeID
		q   []*routing.DataPacket
	}
	rows := make([]row, 0, len(p.q))
	for dst, q := range p.q {
		rows = append(rows, row{mapID(dst), q})
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.dst, b.dst) })
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, r := range rows {
		out = binary.AppendVarint(out, int64(r.dst))
		out = binary.AppendUvarint(out, uint64(len(r.q)))
		for _, pkt := range r.q {
			out = binary.AppendVarint(out, int64(mapID(pkt.Src)))
			out = binary.AppendUvarint(out, pkt.ID)
			out = binary.AppendVarint(out, int64(pkt.TTL))
			out = binary.AppendVarint(out, int64(pkt.Bytes))
		}
	}
	return out
}

// Discovery is the origin-side record of one route computation in
// progress. TTL and Retries belong to the protocol's retry schedule (see
// Requester); the table owns the rest.
type Discovery struct {
	ID      uint32 // request ID of the latest attempt, unique per origin
	TTL     int    // flood radius of the latest attempt
	Retries int    // attempts used beyond the schedule's first phase
	sentAt  time.Duration
	timer   sim.Timer
}

// Requester is the protocol side of a discovery. The table decides when
// an attempt is due and when the computation ends; the protocol builds
// its own RREQ and owns its retry schedule.
type Requester interface {
	// SendRequest builds and broadcasts the RREQ for d's current attempt
	// (d.ID is fresh, d.TTL is the schedule's) and returns how long to
	// wait for a reply before the attempt counts as failed.
	SendRequest(dst routing.NodeID, d *Discovery) time.Duration
	// NextAttempt moves d to the attempt that follows a timeout. False
	// ends the computation: the table drops dst's buffered packets with
	// DropNoRoute and forgets d.
	NextAttempt(dst routing.NodeID, d *Discovery) bool
}

// Discoveries is the table of active route computations, at most one per
// destination, together with the data buffered behind them. It hands out
// request IDs, arms one timer per attempt, and gives up when the
// protocol's schedule is exhausted.
type Discoveries struct {
	Pending

	req     Requester
	active  map[routing.NodeID]*Discovery // allocated on first Solicit
	nextID  uint32
	stopped bool
}

// NewDiscoveries returns an empty table whose attempts are sent by req.
func NewDiscoveries(node *routing.Node, req Requester) Discoveries {
	return Discoveries{Pending: Pending{node: node}, req: req}
}

// Solicit starts the route computation for dst with a first attempt of
// radius ttl, unless one is already active (at most one per destination).
func (ds *Discoveries) Solicit(dst routing.NodeID, ttl int) {
	if ds.stopped || dst == ds.node.ID() || ds.active[dst] != nil {
		return
	}
	if ds.active == nil {
		ds.active = make(map[routing.NodeID]*Discovery)
	}
	d := &Discovery{TTL: ttl}
	ds.active[dst] = d
	ds.attempt(dst, d)
}

// attempt sends one RREQ under a fresh request ID and arms its timer.
func (ds *Discoveries) attempt(dst routing.NodeID, d *Discovery) {
	ds.nextID++
	d.ID = ds.nextID
	d.sentAt = ds.node.Now()
	wait := ds.req.SendRequest(dst, d)
	d.timer = ds.node.Schedule(wait, func() { ds.timeout(dst, d) })
}

// timeout fires when an attempt went unanswered. A timer that outlived
// its discovery (finished, reset, or replaced by a new one for dst) does
// nothing.
func (ds *Discoveries) timeout(dst routing.NodeID, d *Discovery) {
	if ds.active[dst] != d {
		return
	}
	if !ds.req.NextAttempt(dst, d) {
		delete(ds.active, dst)
		ds.Drop(dst, routing.DropNoRoute)
		return
	}
	ds.attempt(dst, d)
}

// Finish ends dst's computation in success. It reports the round-trip
// time of the latest attempt, or false when none was active.
func (ds *Discoveries) Finish(dst routing.NodeID) (rtt time.Duration, ok bool) {
	d := ds.active[dst]
	if d == nil {
		return 0, false
	}
	d.timer.Cancel()
	delete(ds.active, dst)
	return ds.node.Now() - d.sentAt, true
}

// Stopped reports whether Stop has been called.
func (ds *Discoveries) Stopped() bool { return ds.stopped }

// Stop implements routing.Protocol's Stop for the embedding protocol:
// every attempt timer is cancelled and no further discovery starts.
func (ds *Discoveries) Stop() {
	ds.stopped = true
	for _, d := range ds.active {
		d.timer.Cancel()
	}
}

// Reset models a crash: attempt timers are cancelled, every computation
// is forgotten and every buffered packet is dropped with DropReset. The
// request-ID counter survives — IDs need only be unique per origin, and
// reusing pre-crash ones would collide with neighbours' duplicate caches.
func (ds *Discoveries) Reset() {
	for _, d := range ds.active {
		d.timer.Cancel()
	}
	clear(ds.active)
	for _, dst := range ds.dsts() {
		ds.Drop(dst, routing.DropReset)
	}
}

// AppendDiscoveryState serializes the buffered data, the active
// computations and the request-ID counter for the embedding protocol's
// routing.ModelStater encoding, map-valued state sorted by the mapped
// identifiers.
func (ds *Discoveries) AppendDiscoveryState(out []byte, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = ds.appendState(out, mapID)

	type row struct {
		dst routing.NodeID
		d   *Discovery
	}
	rows := make([]row, 0, len(ds.active))
	for dst, d := range ds.active {
		rows = append(rows, row{mapID(dst), d})
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.dst, b.dst) })
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, r := range rows {
		out = binary.AppendVarint(out, int64(r.dst))
		out = binary.AppendUvarint(out, uint64(r.d.ID))
		out = binary.AppendVarint(out, int64(r.d.TTL))
		out = binary.AppendVarint(out, int64(r.d.Retries))
	}
	return binary.AppendUvarint(out, uint64(ds.nextID))
}
