package ondemand

import (
	"encoding/binary"
	"time"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// MaxQueuedPerDest bounds the data packets buffered per destination
// while its route is being discovered.
const MaxQueuedPerDest = 16

// Pending buffers the data packets an origin holds while it discovers a
// route, one bounded FIFO per destination, indexed by destination id.
// Whole-buffer operations visit destinations in ascending NodeID and
// packets in queue order, so the drop events of a crash replay
// identically.
type Pending struct {
	node *routing.Node
	q    [][]*routing.DataPacket // grown on first Push to a destination
}

// Push appends pkt to its destination's queue. A full queue drops its
// head first, accounted as DropQueueOverflow.
func (p *Pending) Push(pkt *routing.DataPacket) {
	p.q = routing.Grow(p.q, pkt.Dst, 0)
	q := p.q[pkt.Dst]
	if len(q) >= MaxQueuedPerDest {
		p.node.DropData(q[0], routing.DropQueueOverflow)
		q = q[1:]
	}
	p.q[pkt.Dst] = append(q, pkt)
}

// Len returns the number of packets buffered for dst.
func (p *Pending) Len(dst routing.NodeID) int {
	if int(dst) >= len(p.q) {
		return 0
	}
	return len(p.q[dst])
}

// Take removes and returns dst's queue, for the caller to send. Packets
// the caller pushes back land in a fresh queue.
func (p *Pending) Take(dst routing.NodeID) []*routing.DataPacket {
	if int(dst) >= len(p.q) {
		return nil
	}
	q := p.q[dst]
	p.q[dst] = nil
	return q
}

// Drop discards dst's queue, accounting every packet with reason.
func (p *Pending) Drop(dst routing.NodeID, reason routing.DropReason) {
	for _, pkt := range p.Take(dst) {
		p.node.DropData(pkt, reason)
	}
}

// WalkHeldData implements routing.HeldDataWalker for the embedding
// protocol: the only data packets an on-demand protocol holds are those
// buffered while route discovery runs.
func (p *Pending) WalkHeldData(fn func(*routing.DataPacket)) {
	for _, q := range p.q {
		for _, pkt := range q {
			fn(pkt)
		}
	}
}

// appendState serializes the buffer for a routing.ModelStater encoding:
// non-empty queues in ascending destination order, packets in queue
// order.
func (p *Pending) appendState(out []byte) []byte {
	n := 0
	for _, q := range p.q {
		if len(q) > 0 {
			n++
		}
	}
	out = binary.AppendUvarint(out, uint64(n))
	for dst, q := range p.q {
		if len(q) == 0 {
			continue
		}
		out = binary.AppendVarint(out, int64(dst))
		out = binary.AppendUvarint(out, uint64(len(q)))
		for _, pkt := range q {
			out = binary.AppendVarint(out, int64(pkt.Src))
			out = binary.AppendUvarint(out, pkt.ID)
			out = binary.AppendVarint(out, int64(pkt.TTL))
			out = binary.AppendVarint(out, int64(pkt.Bytes))
		}
	}
	return out
}

// Discovery is the origin-side record of one route computation in
// progress. TTL and Retries belong to the protocol's retry schedule (see
// Requester); the table owns the rest. A zero ID marks a destination
// with no computation: IDs start at one.
type Discovery struct {
	ID      uint32 // request ID of the latest attempt, unique per origin
	TTL     int    // flood radius of the latest attempt
	Retries int    // attempts used beyond the schedule's first phase
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
	active  []Discovery // indexed by destination, grown on first Solicit
	nextID  uint32
	stopped bool
}

// NewDiscoveries returns an empty table whose attempts are sent by req.
func NewDiscoveries(node *routing.Node, req Requester) Discoveries {
	return Discoveries{Pending: Pending{node: node}, req: req}
}

// running returns dst's active computation, or nil.
func (ds *Discoveries) running(dst routing.NodeID) *Discovery {
	if int(dst) >= len(ds.active) || ds.active[dst].ID == 0 {
		return nil
	}
	return &ds.active[dst]
}

// Solicit starts the route computation for dst with a first attempt of
// radius ttl, unless one is already active (at most one per destination).
func (ds *Discoveries) Solicit(dst routing.NodeID, ttl int) {
	if ds.stopped || dst == ds.node.ID() || ds.running(dst) != nil {
		return
	}
	ds.active = routing.Grow(ds.active, dst, 0)
	d := &ds.active[dst]
	*d = Discovery{TTL: ttl}
	ds.attempt(dst, d)
}

// attempt sends one RREQ under a fresh request ID and arms its timer.
func (ds *Discoveries) attempt(dst routing.NodeID, d *Discovery) {
	ds.nextID++
	id := ds.nextID
	d.ID = id
	wait := ds.req.SendRequest(dst, d)
	d.timer = ds.node.Schedule(wait, func() { ds.timeout(dst, id) })
}

// timeout fires when attempt id went unanswered. A timer that outlived
// its attempt (finished, reset, or followed by another) does nothing.
func (ds *Discoveries) timeout(dst routing.NodeID, id uint32) {
	d := ds.running(dst)
	if d == nil || d.ID != id {
		return
	}
	if !ds.req.NextAttempt(dst, d) {
		*d = Discovery{}
		ds.Drop(dst, routing.DropNoRoute)
		return
	}
	ds.attempt(dst, d)
}

// Finish ends dst's computation in success; without an active one it
// does nothing.
func (ds *Discoveries) Finish(dst routing.NodeID) {
	if d := ds.running(dst); d != nil {
		d.timer.Cancel()
		*d = Discovery{}
	}
}

// Relay re-broadcasts a flood after a random delay of up to
// BroadcastJitter, unless the protocol stops first. m is the filled,
// pooled message to send; it belongs to the wait until then.
func (ds *Discoveries) Relay(m routing.Message) {
	jitter := time.Duration(ds.node.RNG().Float64() * float64(BroadcastJitter))
	ds.node.Schedule(jitter, func() {
		if !ds.stopped {
			ds.node.SendControl(routing.BroadcastID, m, nil)
		}
	})
}

// Stopped reports whether Stop has been called.
func (ds *Discoveries) Stopped() bool { return ds.stopped }

// Stop implements routing.Protocol's Stop for the embedding protocol:
// every attempt timer is cancelled and no further discovery starts.
func (ds *Discoveries) Stop() {
	ds.stopped = true
	for i := range ds.active {
		ds.active[i].timer.Cancel()
	}
}

// Reset models a crash: attempt timers are cancelled, every computation
// is forgotten and every buffered packet is dropped with DropReset. The
// request-ID counter survives — IDs need only be unique per origin, and
// reusing pre-crash ones would collide with neighbours' duplicate caches.
func (ds *Discoveries) Reset() {
	for i := range ds.active {
		ds.active[i].timer.Cancel()
	}
	clear(ds.active)
	for dst := range ds.q {
		ds.Drop(routing.NodeID(dst), routing.DropReset)
	}
}

// AppendDiscoveryState serializes the buffered data, the active
// computations and the request-ID counter for the embedding protocol's
// routing.ModelStater encoding, each in ascending destination order.
func (ds *Discoveries) AppendDiscoveryState(out []byte) []byte {
	out = ds.appendState(out)

	n := 0
	for i := range ds.active {
		if ds.active[i].ID != 0 {
			n++
		}
	}
	out = binary.AppendUvarint(out, uint64(n))
	for dst, d := range ds.active {
		if d.ID == 0 {
			continue
		}
		out = binary.AppendVarint(out, int64(dst))
		out = binary.AppendUvarint(out, uint64(d.ID))
		out = binary.AppendVarint(out, int64(d.TTL))
		out = binary.AppendVarint(out, int64(d.Retries))
	}
	return binary.AppendUvarint(out, uint64(ds.nextID))
}

// DiscoveryState is a Discoveries with its buffered data, saved (see
// routing.ModelStater).
type DiscoveryState struct {
	queues  []int                // the length of each of Pending.q's queues
	pkts    []routing.DataPacket // the queued packets, queue after queue
	active  []Discovery
	nextID  uint32
	stopped bool
}

// SaveDiscoveryState copies the buffered packets, the active
// computations, the request-ID counter and the stopped flag into s's
// storage, for the embedding protocol's SaveModelState. Attempt timers
// are copied as handles: under a routing.ModelEnv they are all zero.
func (ds *Discoveries) SaveDiscoveryState(s *DiscoveryState) {
	s.queues = routing.Resize(s.queues, len(ds.q))
	n := 0
	for dst, q := range ds.q {
		s.queues[dst] = len(q)
		n += len(q)
	}
	s.pkts = routing.Resize(s.pkts, n)
	i := 0
	for _, q := range ds.q {
		for _, pkt := range q {
			routing.CopyDataPacket(&s.pkts[i], pkt)
			i++
		}
	}
	s.active = append(s.active[:0], ds.active...)
	s.nextID, s.stopped = ds.nextID, ds.stopped
}

// RestoreDiscoveryState puts back what SaveDiscoveryState copied out of
// this table, slice lengths included. The buffered packets come back as
// fresh unpooled copies; the ones held before are let go without a drop
// being accounted.
func (ds *Discoveries) RestoreDiscoveryState(s *DiscoveryState) {
	ds.q = routing.Resize(ds.q, len(s.queues))
	pkts := s.pkts
	for dst, n := range s.queues {
		var q []*routing.DataPacket
		if n > 0 {
			q = make([]*routing.DataPacket, n)
			for i := range q {
				q[i] = new(routing.DataPacket)
				routing.CopyDataPacket(q[i], &pkts[i])
			}
		}
		ds.q[dst], pkts = q, pkts[n:]
	}
	ds.active = append(ds.active[:0], s.active...)
	ds.nextID, ds.stopped = s.nextID, s.stopped
}
