package ondemand

// The map implementations the id-indexed slices replaced, kept as the
// references FuzzOnDemandState holds Seen, Pending and Discoveries to:
// refSeen is the duplicate cache as one map swept once per cache life,
// refDiscoveries the buffered data and the active computations as two
// maps, each with the encoding and the save and restore it had — keys
// sorted on the way out, maps rebuilt in place on the way back.

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// saved is one entry of a map saved by savePtrMap.
type saved[K comparable, V any] struct {
	key K
	val V
}

// savePtrMap copies a map of pointers into dst's storage in ascending key
// order, the pointed-to values copied by assignment.
func savePtrMap[K comparable, V any](dst []saved[K, V], m map[K]*V, cmpKey func(a, b K) int) []saved[K, V] {
	dst = routing.Resize(dst, len(m))
	i := 0
	for k, v := range m {
		dst[i] = saved[K, V]{k, *v}
		i++
	}
	slices.SortFunc(dst, func(a, b saved[K, V]) int { return cmpKey(a.key, b.key) })
	return dst
}

// restorePtrMap makes m hold exactly the entries savePtrMap copied out.
func restorePtrMap[K comparable, V any](m map[K]*V, src []saved[K, V], cmpKey func(a, b K) int) {
	for i := range src {
		p := m[src[i].key]
		if p == nil {
			p = new(V)
			m[src[i].key] = p
		}
		*p = src[i].val
	}
	for k := range m {
		if _, ok := slices.BinarySearchFunc(src, k, func(e saved[K, V], k K) int { return cmpKey(e.key, k) }); !ok {
			delete(m, k)
		}
	}
}

type refSeenEntry[V any] struct {
	expires time.Duration
	val     V
}

// refSeen is the duplicate cache as a map: an entry dead at now is absent
// to Get, and Add sweeps the whole map at most once per cache life.
type refSeen[V any] struct {
	m       map[ReqKey]*refSeenEntry[V]
	sweepAt time.Duration
}

func (c *refSeen[V]) Get(key ReqKey, now time.Duration) *V {
	if e := c.m[key]; e != nil && now < e.expires {
		return &e.val
	}
	return nil
}

func (c *refSeen[V]) Add(key ReqKey, now time.Duration) *V {
	if now >= c.sweepAt {
		for k, e := range c.m {
			if e.expires <= now {
				delete(c.m, k)
			}
		}
		c.sweepAt = now + RREQCacheLife
	}
	if c.m == nil {
		c.m = make(map[ReqKey]*refSeenEntry[V])
	}
	e := &refSeenEntry[V]{expires: now + RREQCacheLife}
	c.m[key] = e
	return &e.val
}

func (c *refSeen[V]) Reset() { clear(c.m) }

// appendState is the encoding Seen's callers built: the live keys
// collected and sorted, then each with its value.
func (c *refSeen[V]) appendState(out []byte, now time.Duration, val func([]byte, *V) []byte) []byte {
	var keys []ReqKey
	for k, e := range c.m {
		if now < e.expires {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compareReqKey)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = binary.AppendVarint(out, int64(k.Origin))
		out = binary.AppendUvarint(out, uint64(k.ID))
		if val != nil {
			out = val(out, &c.m[k].val)
		}
	}
	return out
}

type refSeenState[V any] struct {
	entries []saved[ReqKey, refSeenEntry[V]]
	sweepAt time.Duration
}

func (c *refSeen[V]) save(s *refSeenState[V]) {
	s.entries = savePtrMap(s.entries, c.m, compareReqKey)
	s.sweepAt = c.sweepAt
}

func (c *refSeen[V]) restore(s *refSeenState[V]) {
	if c.m == nil {
		c.m = make(map[ReqKey]*refSeenEntry[V])
	}
	restorePtrMap(c.m, s.entries, compareReqKey)
	c.sweepAt = s.sweepAt
}

// refDiscoveries is Pending and Discoveries over two maps: destinations
// sorted wherever their order shows, a timer closure that recognises its
// discovery by pointer.
type refDiscoveries struct {
	node    *routing.Node
	req     Requester
	q       map[routing.NodeID][]*routing.DataPacket
	active  map[routing.NodeID]*Discovery
	nextID  uint32
	stopped bool
}

func newRefDiscoveries(node *routing.Node, req Requester) *refDiscoveries {
	return &refDiscoveries{
		node:   node,
		req:    req,
		q:      map[routing.NodeID][]*routing.DataPacket{},
		active: map[routing.NodeID]*Discovery{},
	}
}

func sortedKeys[V any](m map[routing.NodeID]V) []routing.NodeID {
	keys := make([]routing.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (p *refDiscoveries) Push(pkt *routing.DataPacket) {
	q := p.q[pkt.Dst]
	if len(q) >= MaxQueuedPerDest {
		p.node.DropData(q[0], routing.DropQueueOverflow)
		q = q[1:]
	}
	p.q[pkt.Dst] = append(q, pkt)
}

func (p *refDiscoveries) Len(dst routing.NodeID) int { return len(p.q[dst]) }

func (p *refDiscoveries) Take(dst routing.NodeID) []*routing.DataPacket {
	q := p.q[dst]
	delete(p.q, dst)
	return q
}

func (p *refDiscoveries) Drop(dst routing.NodeID, reason routing.DropReason) {
	for _, pkt := range p.Take(dst) {
		p.node.DropData(pkt, reason)
	}
}

func (p *refDiscoveries) WalkHeldData(fn func(*routing.DataPacket)) {
	for _, dst := range sortedKeys(p.q) {
		for _, pkt := range p.q[dst] {
			fn(pkt)
		}
	}
}

func (ds *refDiscoveries) Solicit(dst routing.NodeID, ttl int) {
	if ds.stopped || dst == ds.node.ID() || ds.active[dst] != nil {
		return
	}
	d := &Discovery{TTL: ttl}
	ds.active[dst] = d
	ds.attempt(dst, d)
}

func (ds *refDiscoveries) attempt(dst routing.NodeID, d *Discovery) {
	ds.nextID++
	d.ID = ds.nextID
	wait := ds.req.SendRequest(dst, d)
	d.timer = ds.node.Schedule(wait, func() { ds.timeout(dst, d) })
}

func (ds *refDiscoveries) timeout(dst routing.NodeID, d *Discovery) {
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

func (ds *refDiscoveries) Finish(dst routing.NodeID) {
	if d := ds.active[dst]; d != nil {
		d.timer.Cancel()
		delete(ds.active, dst)
	}
}

func (ds *refDiscoveries) Stop() {
	ds.stopped = true
	for _, d := range ds.active {
		d.timer.Cancel()
	}
}

func (ds *refDiscoveries) Reset() {
	for _, d := range ds.active {
		d.timer.Cancel()
	}
	clear(ds.active)
	for _, dst := range sortedKeys(ds.q) {
		ds.Drop(dst, routing.DropReset)
	}
}

func (ds *refDiscoveries) AppendDiscoveryState(out []byte) []byte {
	keys := sortedKeys(ds.q)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, dst := range keys {
		q := ds.q[dst]
		out = binary.AppendVarint(out, int64(dst))
		out = binary.AppendUvarint(out, uint64(len(q)))
		for _, pkt := range q {
			out = binary.AppendVarint(out, int64(pkt.Src))
			out = binary.AppendUvarint(out, pkt.ID)
			out = binary.AppendVarint(out, int64(pkt.TTL))
			out = binary.AppendVarint(out, int64(pkt.Bytes))
		}
	}
	keys = sortedKeys(ds.active)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, dst := range keys {
		d := ds.active[dst]
		out = binary.AppendVarint(out, int64(dst))
		out = binary.AppendUvarint(out, uint64(d.ID))
		out = binary.AppendVarint(out, int64(d.TTL))
		out = binary.AppendVarint(out, int64(d.Retries))
	}
	return binary.AppendUvarint(out, uint64(ds.nextID))
}

type refQueue struct {
	dst routing.NodeID
	n   int
}

type refDiscoveryState struct {
	queues  []refQueue
	pkts    []routing.DataPacket
	active  []saved[routing.NodeID, Discovery]
	nextID  uint32
	stopped bool
}

func (ds *refDiscoveries) save(s *refDiscoveryState) {
	s.queues = s.queues[:0]
	n := 0
	for dst, q := range ds.q {
		s.queues = append(s.queues, refQueue{dst, len(q)})
		n += len(q)
	}
	slices.SortFunc(s.queues, func(a, b refQueue) int { return cmp.Compare(a.dst, b.dst) })
	s.pkts = routing.Resize(s.pkts, n)
	i := 0
	for _, sq := range s.queues {
		for _, pkt := range ds.q[sq.dst] {
			routing.CopyDataPacket(&s.pkts[i], pkt)
			i++
		}
	}
	s.active = savePtrMap(s.active, ds.active, cmp.Compare[routing.NodeID])
	s.nextID, s.stopped = ds.nextID, ds.stopped
}

func (ds *refDiscoveries) restore(s *refDiscoveryState) {
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
	restorePtrMap(ds.active, s.active, cmp.Compare[routing.NodeID])
	ds.nextID, ds.stopped = s.nextID, s.stopped
}
