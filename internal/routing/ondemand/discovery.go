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

	keys []routing.NodeID // scratch of the state encoding
}

// sortedKeys returns keys[:0] refilled with the keys of m in ascending
// order.
func sortedKeys[V any](keys []routing.NodeID, m map[routing.NodeID]V) []routing.NodeID {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
	return sortedKeys(make([]routing.NodeID, 0, len(p.q)), p.q)
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
// destinations in ascending order, packets in queue order.
func (p *Pending) appendState(out []byte) []byte {
	p.keys = sortedKeys(p.keys, p.q)
	out = binary.AppendUvarint(out, uint64(len(p.keys)))
	for _, dst := range p.keys {
		q := p.q[dst]
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
// Requester); the table owns the rest.
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

// Finish ends dst's computation in success; without an active one it
// does nothing.
func (ds *Discoveries) Finish(dst routing.NodeID) {
	if d := ds.active[dst]; d != nil {
		d.timer.Cancel()
		delete(ds.active, dst)
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
// routing.ModelStater encoding, map-valued state in ascending key order.
func (ds *Discoveries) AppendDiscoveryState(out []byte) []byte {
	out = ds.appendState(out)

	ds.keys = sortedKeys(ds.keys, ds.active)
	out = binary.AppendUvarint(out, uint64(len(ds.keys)))
	for _, dst := range ds.keys {
		d := ds.active[dst]
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
	queues  []savedQueue         // Pending.q in ascending destination order
	pkts    []routing.DataPacket // the queued packets, queue after queue
	active  []routing.Saved[routing.NodeID, Discovery]
	nextID  uint32
	stopped bool
}

type savedQueue struct {
	dst routing.NodeID
	n   int
}

// SaveDiscoveryState copies the buffered packets, the active
// computations, the request-ID counter and the stopped flag into s's
// storage, for the embedding protocol's SaveModelState. Attempt timers
// are copied as handles: under a routing.ModelEnv they are all zero.
func (ds *Discoveries) SaveDiscoveryState(s *DiscoveryState) {
	s.queues = s.queues[:0]
	n := 0
	for dst, q := range ds.q {
		s.queues = append(s.queues, savedQueue{dst, len(q)})
		n += len(q)
	}
	slices.SortFunc(s.queues, func(a, b savedQueue) int { return cmp.Compare(a.dst, b.dst) })
	s.pkts = routing.Resize(s.pkts, n)
	i := 0
	for _, sq := range s.queues {
		for _, pkt := range ds.q[sq.dst] {
			routing.CopyDataPacket(&s.pkts[i], pkt)
			i++
		}
	}
	s.active = routing.SavePtrMap(s.active, ds.active, cmp.Compare[routing.NodeID], nil)
	s.nextID, s.stopped = ds.nextID, ds.stopped
}

// RestoreDiscoveryState puts back what SaveDiscoveryState copied out of
// this table (its lazily made maps exist whenever a saved state has
// entries for them). The buffered packets come back as fresh unpooled
// copies; the ones held before are let go without a drop being accounted.
func (ds *Discoveries) RestoreDiscoveryState(s *DiscoveryState) {
	clear(ds.q)
	pkts := s.pkts
	for _, sq := range s.queues {
		q := make([]*routing.DataPacket, sq.n)
		for i := range q {
			q[i] = new(routing.DataPacket)
			routing.CopyDataPacket(q[i], &pkts[i])
		}
		ds.q[sq.dst], pkts = q, pkts[sq.n:]
	}
	routing.RestorePtrMap(ds.active, s.active, cmp.Compare[routing.NodeID], nil)
	ds.nextID, ds.stopped = s.nextID, s.stopped
}
