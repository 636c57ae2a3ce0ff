package modelcheck

// Saving and restoring a world in place, and the cursor that walks one
// world over the search tree with a stack of saved states.
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
// Packets and messages. A handler that receives a data packet mutates it
// (TTL, and SRIndex under source routing) and may keep the pointer in its
// pending buffer, so every queued data packet is copied on save and again
// on restore. Control messages are read-only once sent and never go back
// to a pool under the model, so saved and live queues share them.

import "github.com/manetlab/ldr/internal/routing"

// snapshot is one saved state of a world. Its storage is reused from one
// save to the next.
type snapshot struct {
	nodes   []routing.NodeModelState
	protos  []any                // each protocol's routing.ModelStater store
	pending [][]linkMsg          // as world.pending; packets point into pkts
	pkts    []routing.DataPacket // copies of the queued data packets

	slot, curRoot, nextFlow, lostUnicasts int

	// delLog and dropLog only grow along a path, so their lengths restore
	// them.
	delLen, dropLen int
}

// save copies the world's state into s, or into a new snapshot when s is
// nil, and returns it. Only called between actions, when no microtask is
// queued.
func (w *world) save(s *snapshot) *snapshot {
	if s == nil {
		n := w.sc.Graph.N
		s = &snapshot{
			nodes:   make([]routing.NodeModelState, n),
			protos:  make([]any, n),
			pending: make([][]linkMsg, n*n),
		}
	}
	for i, node := range w.nw.Nodes {
		node.SaveModelState(&s.nodes[i])
		s.protos[i] = w.staters[i].SaveModelState(s.protos[i])
	}
	npkts := 0
	for _, q := range w.pending {
		for _, m := range q {
			if m.pkt != nil {
				npkts++
			}
		}
	}
	s.pkts = routing.Resize(s.pkts, npkts)
	next := 0
	for li, q := range w.pending {
		sq := append(s.pending[li][:0], q...)
		for i := range sq {
			if sq[i].pkt != nil {
				routing.CopyDataPacket(&s.pkts[next], sq[i].pkt)
				sq[i].pkt = &s.pkts[next]
				next++
			}
		}
		s.pending[li] = sq
	}
	s.slot, s.curRoot, s.nextFlow, s.lostUnicasts = w.slot, w.curRoot, w.nextFlow, w.lostUnicasts
	s.delLen, s.dropLen = len(w.delLog), len(w.dropLog)
	return s
}

// restore puts the world back into the state s holds. s is unchanged and
// shares no mutable memory with the world afterwards, so it can be
// restored again.
func (w *world) restore(s *snapshot) {
	for i, node := range w.nw.Nodes {
		node.RestoreModelState(&s.nodes[i])
		w.staters[i].RestoreModelState(s.protos[i])
	}
	for li, sq := range s.pending {
		q := append(w.pending[li][:0], sq...)
		for i := range q {
			if q[i].pkt != nil {
				cp := new(routing.DataPacket)
				routing.CopyDataPacket(cp, q[i].pkt)
				q[i].pkt = cp
			}
		}
		w.pending[li] = q
	}
	w.slot, w.curRoot, w.nextFlow, w.lostUnicasts = s.slot, s.curRoot, s.nextFlow, s.lostUnicasts
	w.delLog, w.dropLog = w.delLog[:s.delLen], w.dropLog[:s.dropLen]
}

// cursor is an exploration's one world together with the saved states of
// the path that led to where it stands. Moving to another state of the
// search tree restores the deepest saved state the two paths share and
// applies only the rest; breadth-first order visits the tree's states in
// trie order, so that rest is short (1.8 actions per expansion on the
// 3-node graphs at depth 14) and the stack never holds more than the
// depth bound plus one.
type cursor struct {
	w     *world
	trace []Action    // the path from the initial state to the sought state
	snaps []*snapshot // snaps[i] is the state after trace[:i]; further slots are spare storage
}

// newCursor builds the scenario's world and saves its initial state.
func newCursor(sc *Scenario) (*cursor, error) {
	w, err := newWorld(sc)
	if err != nil {
		return nil, err
	}
	return &cursor{w: w, snaps: []*snapshot{w.save(nil)}}, nil
}

// seek moves the world to the state at the end of trace.
func (c *cursor) seek(trace []Action) {
	k := 0
	for k < len(trace) && k < len(c.trace) && trace[k] == c.trace[k] {
		k++
	}
	c.w.restore(c.snaps[k])
	c.trace = append(c.trace[:k], trace[k:]...)
	for k < len(trace) {
		c.w.apply(trace[k])
		k++
		if k == len(c.snaps) {
			c.snaps = append(c.snaps, nil)
		}
		c.snaps[k] = c.w.save(c.snaps[k])
	}
}

// back undoes whatever was applied to the world since the last seek.
func (c *cursor) back() { c.w.restore(c.snaps[len(c.trace)]) }
