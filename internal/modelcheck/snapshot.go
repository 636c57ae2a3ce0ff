package modelcheck

// Saving and restoring a world in place, and the cursor that walks one
// world over the search tree with a stack of saved states. Each worker of
// an exploration has a cursor of its own (modelcheck.go).
//
// Completeness rule: a snapshot holds every field an action can write,
// whether or not the state encoding (encode.go) includes it. The encoding
// leaves out what cannot change the future within a bounded exploration —
// rate-limiter buckets, timestamps at a frozen clock, the causal-root
// bookkeeping of the witness builder — and that is sound for deciding
// which states are equal. But the world is reused: a field left out of
// the snapshot would keep the value the previously explored branch gave
// it, and the state reached would depend on the order of exploration. So
// the snapshot is checked against replay from a fresh world
// (TestSnapshotEqualsReplay) and against the protocols' field lists
// (TestModelStateFieldCoverage), not against the encoding.
//
// One node at a time. An action writes one node and a few links (env.go,
// "Locality"), so a snapshot is a table of per-node and per-link records,
// and the snapshot after an action saves only what the action wrote and
// points at its predecessor's records for the rest; going back restores
// only what was written since. The whole-world save and restore this
// replaced survive in reference_test.go, where every step of a random walk
// is compared against them.
//
// Packets and messages. A handler that receives a data packet mutates it
// (TTL, and SRIndex under source routing) and may keep the pointer in its
// pending buffer, so a saved queue holds copies of its data packets, in
// the record's own storage, and a restore gives the live queue's packets
// back to the world's free list (env.go) and refills the queue with copies
// taken from it: the live and saved queues share no packet, and a restore
// allocates none once the list is warm. Control messages are read-only
// once sent, so saved and live queues share them, and each entry of a
// record of a snapshot's own counts as one holder of its message, as a
// live queue entry does (world.msgs): a save counts the entries it copies
// and lets go of those it overwrites, a restore lets go of the live
// queue's and counts its refill. A message nothing holds goes back to its
// sender's pools, so the search reuses its messages as the simulator
// does. A record shared from a snapshot lower on the stack is counted
// there, once.

import (
	"math/bits"
	"sync"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// nodeRec is one node's saved state, with what the search derives from it
// cached beside it: the state is saved once and then looked at — hashed,
// its table checked — from every successor in which another node acted.
type nodeRec struct {
	node  routing.NodeModelState
	proto any // the protocol's routing.ModelStater store

	// Filled on first use, dropped when the record is saved over: the hash
	// of the protocol's AppendModelState bytes and its AppendTable rows.
	hash    stateKey
	hashOK  bool
	table   []routing.RouteEntry
	tableOK bool
}

// linkRec is one directed link's saved queue. Its items keep their hashes.
type linkRec struct {
	q    []linkMsg            // packets point into pkts
	pkts []routing.DataPacket // copies of the queued data packets
}

// snapshot is one saved state of a world: nodes[i] and links[li] are the
// records holding node i and pending slot li in that state (a nil link
// record is an empty queue). A record is either this snapshot's own — the
// storage behind ownNodes and ownLinks, reused from one save to the next —
// or belongs to a snapshot lower on the cursor's stack.
type snapshot struct {
	nodes []*nodeRec
	links []*linkRec

	ownNodes []nodeRec
	ownLinks []linkRec

	// wroteNodes and wroteLinks are the records of its own this snapshot
	// holds: what the step from its predecessor wrote.
	wroteNodes, wroteLinks uint32

	slot, curRoot, nextFlow int

	// delLog and dropLog only grow along a path, so their lengths restore
	// them.
	delLen, dropLen int
}

func newSnapshot(n int) *snapshot {
	return &snapshot{
		nodes:    make([]*nodeRec, n),
		links:    make([]*linkRec, n*n),
		ownNodes: make([]nodeRec, n),
		ownLinks: make([]linkRec, n*n),
	}
}

// save makes s the world's present state, given that prev holds the state
// the world was last saved in or restored to: s copies what has been
// written since (the world's dirty sets, cleared by this) and shares
// prev's records for the rest. prev is nil for a new world, which has
// every node written (each was started) and no link but the written ones
// in use. Only called between actions, when no microtask is queued.
func (s *snapshot) save(w *world, prev *snapshot) {
	if prev != nil {
		copy(s.nodes, prev.nodes)
		copy(s.links, prev.links)
	}
	s.wroteNodes, s.wroteLinks = w.dirtyNodes, w.dirtyLinks
	for m := w.dirtyNodes; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		r := &s.ownNodes[i]
		w.nw.Nodes[i].SaveModelState(&r.node)
		r.proto = w.staters[i].SaveModelState(r.proto)
		r.hashOK, r.tableOK = false, false
		s.nodes[i] = r
	}
	w.handlers.Lock()
	for m := w.dirtyLinks; m != 0; m &= m - 1 {
		li := bits.TrailingZeros32(m)
		r := &s.ownLinks[li]
		for _, item := range r.q {
			w.let(item)
		}
		r.q = append(r.q[:0], w.pending[li]...)
		npkts := 0
		for _, item := range r.q {
			if item.pkt != nil {
				npkts++
			} else {
				w.hold(item)
			}
		}
		r.pkts = routing.Resize(r.pkts, npkts)
		next := 0
		for i := range r.q {
			if r.q[i].pkt != nil {
				routing.CopyDataPacket(&r.pkts[next], r.q[i].pkt)
				r.q[i].pkt = &r.pkts[next]
				next++
			}
		}
		s.links[li] = r
	}
	w.handlers.Unlock()
	w.dirtyNodes, w.dirtyLinks = 0, 0
	s.slot, s.curRoot, s.nextFlow = w.slot, w.curRoot, w.nextFlow
	s.delLen, s.dropLen = len(w.delLog), len(w.dropLog)
}

// restore puts the world back into the state s holds, given that the
// world's dirty sets (cleared by this) cover everything in which it
// differs from s. s is unchanged and shares no mutable memory with the
// world afterwards, so it can be restored again.
func (s *snapshot) restore(w *world) {
	for m := w.dirtyNodes; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		r := s.nodes[i]
		w.nw.Nodes[i].RestoreModelState(&r.node)
		w.staters[i].RestoreModelState(r.proto)
	}
	w.handlers.Lock()
	for m := w.dirtyLinks; m != 0; m &= m - 1 {
		li := bits.TrailingZeros32(m)
		w.releaseQueue(li)
		q := w.pending[li][:0]
		if r := s.links[li]; r != nil {
			q = append(q, r.q...)
			for i := range q {
				if q[i].pkt != nil {
					q[i].pkt = w.copyPacket(q[i].pkt)
				} else {
					w.hold(q[i])
				}
			}
		}
		w.pending[li] = q
	}
	w.handlers.Unlock()
	w.dirtyNodes, w.dirtyLinks = 0, 0
	w.slot, w.curRoot, w.nextFlow = s.slot, s.curRoot, s.nextFlow
	w.delLog, w.dropLog = w.delLog[:s.delLen], w.dropLog[:s.dropLen]
}

// cursor is a world together with the saved states of the path that led
// to where it stands. Moving to another state of the search tree restores
// the deepest saved state the two paths share and applies only the rest;
// breadth-first order visits the tree's states in trie order, so that
// rest is short (1.8 actions per expansion on the 3-node graphs at depth
// 14) and the stack never holds more than the depth bound plus one.
//
// Sharing is safe because of the order slots are written in: snaps[k] is
// saved over only by a seek whose trace parts from the cursor's before
// action k, and that seek goes on to save over every deeper slot it will
// use, in ascending order, before anything reads them. So no live slot
// ever points at a record that was saved over after it.
//
// Between a seek and the next back the world may be some actions ahead of
// the sought state. The cursor's views (tables, and the key in encode.go)
// are of the world as it stands: a node written since is read live, any
// other through the sought state's record and its caches.
type cursor struct {
	w     *world
	trace []Action    // the path from the initial state to the sought state
	snaps []*snapshot // snaps[i] is the state after trace[:i]; further slots are spare storage

	tabs    [][]routing.RouteEntry // tables' result
	scratch [][]routing.RouteEntry // storage for the tables of written nodes
}

// newCursor builds the scenario's world and saves its initial state. It
// picks the lock the exploration's worlds run protocol code under (env.go):
// none for a protocol scenario builds itself, one mutex for a factory
// installed by scenario.RegisterProtocol.
func newCursor(sc *Scenario) (*cursor, error) {
	var handlers sync.Locker = noLock{}
	if !scenario.BuiltIn(scenario.ProtocolName(sc.Protocol)) {
		handlers = new(sync.Mutex)
	}
	return openCursor(sc, handlers)
}

// noLock is the lock of worlds whose protocol instances share nothing.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// openCursor is newCursor for a world whose protocol code runs under
// handlers, the lock of an exploration's other worlds.
func openCursor(sc *Scenario, handlers sync.Locker) (*cursor, error) {
	w, err := newWorld(sc, handlers)
	if err != nil {
		return nil, err
	}
	n := sc.Graph.N
	c := &cursor{
		w:       w,
		snaps:   []*snapshot{newSnapshot(n)},
		tabs:    make([][]routing.RouteEntry, n),
		scratch: make([][]routing.RouteEntry, n),
	}
	c.snaps[0].save(w, nil)
	return c, nil
}

// base is the saved state of the sought trace.
func (c *cursor) base() *snapshot { return c.snaps[len(c.trace)] }

// seek moves the world to the state at the end of trace.
func (c *cursor) seek(trace []Action) {
	k := 0
	for k < len(trace) && k < len(c.trace) && trace[k] == c.trace[k] {
		k++
	}
	// Undo what the abandoned suffix of the path wrote, on top of whatever
	// was applied since the last seek.
	for _, s := range c.snaps[k+1 : len(c.trace)+1] {
		c.w.dirtyNodes |= s.wroteNodes
		c.w.dirtyLinks |= s.wroteLinks
	}
	c.snaps[k].restore(c.w)
	c.trace = append(c.trace[:k], trace[k:]...)
	for k < len(trace) {
		c.w.apply(trace[k])
		k++
		if k == len(c.snaps) {
			c.snaps = append(c.snaps, newSnapshot(c.w.sc.Graph.N))
		}
		c.snaps[k].save(c.w, c.snaps[k-1])
	}
}

// back undoes whatever was applied to the world since the last seek.
func (c *cursor) back() { c.base().restore(c.w) }

// tables returns every node's routing table in the world's present state,
// for the invariant check. The result is valid until the world changes.
func (c *cursor) tables() [][]routing.RouteEntry {
	base := c.base()
	for i := range c.tabs {
		if c.w.dirtyNodes&(1<<i) != 0 {
			c.scratch[i] = c.w.appendTable(c.scratch[i][:0], i)
			c.tabs[i] = c.scratch[i]
			continue
		}
		r := base.nodes[i]
		if !r.tableOK {
			r.table, r.tableOK = c.w.appendTable(r.table[:0], i), true
		}
		c.tabs[i] = r.table
	}
	return c.tabs
}
