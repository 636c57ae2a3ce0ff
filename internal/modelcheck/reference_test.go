package modelcheck

// The references. Until the search learned that an action writes one
// node, a transition saved, restored, encoded and table-snapshotted all n
// of them; that code is kept here (the encoding without its scratch reuse)
// as what the per-node versions in snapshot.go and encode.go are compared
// against (TestSnapshotEqualsReplay, TestActionTouchesOneNode,
// TestKeysDoNotCollide). It knows nothing of dirty sets, shared records or
// cached hashes: every call reads the whole live world.
//
// refEncode is the serialization a state's identity is defined by, and
// refKey composes the key from its parts without the hashes encode.go
// caches on records and carries with queued items.
//
// Until it learned sleep sets, the search took every enabled action of
// every state it expanded; that search is refExplore, which
// TestReductionKeepsEveryState compares explore against.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
)

// refExplore is the unreduced search. Besides the result and the arena it
// returns every discovered state's key, in discovery order.
func refExplore(cur *cursor, opts Options, start time.Time) (*Result, chain[rec], []stateKey) {
	w := cur.w
	sc := w.sc
	checker := loopcheck.NewChecker()

	res := &Result{Scenario: sc}
	if v := checker.CheckTables(cur.tables()); len(v) > 0 {
		res.States, res.Elapsed = 1, time.Since(start)
		res.Violation = newWitness(sc, nil, v, w)
		return res, chain[rec]{}, nil
	}

	var recs chain[rec]
	recs.push(rec{parent: -1})
	keys := []stateKey{cur.key(opts.remaining(budgets{}))}
	visited := map[stateKey]struct{}{keys[0]: {}}
	res.States = 1

	var trace []Action
	for idx := int32(0); int(idx) < recs.len(); idx++ {
		depth := int(recs.at(int(idx)).depth)
		if depth > res.Depth {
			res.Depth = depth
		}
		if depth >= opts.MaxDepth {
			continue
		}
		var spent budgets
		trace, spent = traceOf(trace, &recs, idx)
		cur.seek(trace)
		for _, a := range w.enabled(nil, opts.remaining(spent)) {
			w.apply(a)
			res.Transitions++
			if v := checker.CheckTables(cur.tables()); len(v) > 0 {
				res.Elapsed = time.Since(start)
				res.Violation = newWitness(sc, append(slices.Clone(trace), a), v, w)
				return res, recs, keys
			}
			k := cur.key(opts.remaining(spent.after(a)))
			cur.back()
			if _, ok := visited[k]; ok {
				continue
			}
			if res.States >= opts.MaxStates {
				res.Truncated = true
				continue
			}
			visited[k] = struct{}{}
			recs.push(rec{parent: idx, depth: int32(depth + 1), action: pack(a)})
			keys = append(keys, k)
			res.States++
		}
	}
	res.Elapsed = time.Since(start)
	return res, recs, keys
}

// fullSnapshot is one saved state of a whole world. Its storage is reused
// from one save to the next. Each of its queued messages counts as a
// holder (world.msgs), as an entry of a snapshot's own record does.
type fullSnapshot struct {
	nodes   []routing.NodeModelState
	protos  []any                // each protocol's routing.ModelStater store
	pending [][]linkMsg          // as world.pending; packets point into pkts
	pkts    []routing.DataPacket // copies of the queued data packets

	slot, curRoot, nextFlow int
	delLen, dropLen         int
}

// save copies the world's state into s, or into a new snapshot when s is
// nil, and returns it.
func (w *world) save(s *fullSnapshot) *fullSnapshot {
	if s == nil {
		n := w.sc.Graph.N
		s = &fullSnapshot{
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
	w.handlers.Lock()
	for li, q := range w.pending {
		for _, m := range s.pending[li] {
			w.let(m)
		}
		sq := append(s.pending[li][:0], q...)
		for i := range sq {
			if sq[i].pkt != nil {
				routing.CopyDataPacket(&s.pkts[next], sq[i].pkt)
				sq[i].pkt = &s.pkts[next]
				next++
			} else {
				w.hold(sq[i])
			}
		}
		s.pending[li] = sq
	}
	w.handlers.Unlock()
	s.slot, s.curRoot, s.nextFlow = w.slot, w.curRoot, w.nextFlow
	s.delLen, s.dropLen = len(w.delLog), len(w.dropLog)
	return s
}

// restore puts the world back into the state s holds.
func (w *world) restore(s *fullSnapshot) {
	for i, node := range w.nw.Nodes {
		node.RestoreModelState(&s.nodes[i])
		w.staters[i].RestoreModelState(s.protos[i])
	}
	w.handlers.Lock()
	for li, sq := range s.pending {
		w.releaseQueue(li)
		q := append(w.pending[li][:0], sq...)
		for i := range q {
			if q[i].pkt != nil {
				q[i].pkt = w.copyPacket(q[i].pkt)
			} else {
				w.hold(q[i])
			}
		}
		w.pending[li] = q
	}
	w.handlers.Unlock()
	w.slot, w.curRoot, w.nextFlow = s.slot, s.curRoot, s.nextFlow
	w.delLog, w.dropLog = w.delLog[:s.delLen], w.dropLog[:s.dropLen]
}

// tables snapshots every node's routing table.
func (w *world) tables() [][]routing.RouteEntry {
	tabs := make([][]routing.RouteEntry, w.sc.Graph.N)
	for i := range tabs {
		tabs[i] = w.appendTable(nil, i)
	}
	return tabs
}

// refCursor is the cursor over whole-world snapshots: one world, a stack
// of saved states along its path, everything restored on every move.
type refCursor struct {
	w     *world
	trace []Action
	snaps []*fullSnapshot
}

func newRefCursor(sc *Scenario) (*refCursor, error) {
	w, err := newWorld(sc, new(sync.Mutex))
	if err != nil {
		return nil, err
	}
	return &refCursor{w: w, snaps: []*fullSnapshot{w.save(nil)}}, nil
}

func (c *refCursor) seek(trace []Action) {
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

func (c *refCursor) back() { c.w.restore(c.snaps[len(c.trace)]) }

// refParts are the parts of w's serialization, every node encoded from
// the live world and every link walked in a nested loop: the context
// (origination progress and budgets), each node's bytes in id order, and
// each non-empty link's items, sorted as whole byte strings.
type refParts struct {
	context []byte
	nodes   [][]byte
	links   []refLink
}

type refLink struct {
	from, to int
	items    [][]byte
}

func refPartsOf(w *world, b budgets) refParts {
	n := w.sc.Graph.N
	var e encoder
	p := refParts{context: appendContext(nil, w.nextFlow, b)}
	for i := 0; i < n; i++ {
		p.nodes = append(p.nodes, w.staters[i].AppendModelState(nil))
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			var items [][]byte
			for _, m := range w.pending[from*n+to] {
				items = append(items, e.encodeItem(nil, m))
			}
			if len(items) > 0 {
				slices.SortFunc(items, bytes.Compare)
				p.links = append(p.links, refLink{from, to, items})
			}
		}
	}
	return p
}

// refEncode is w's serialization: the context, the nodes, the count of
// non-empty links and each one's (from, to), item count and items.
func refEncode(w *world, b budgets) []byte {
	p := refPartsOf(w, b)
	out := slices.Clone(p.context)
	for _, node := range p.nodes {
		out = append(out, node...)
	}
	out = binary.AppendUvarint(out, uint64(len(p.links)))
	for _, l := range p.links {
		out = binary.AppendUvarint(out, uint64(l.from))
		out = binary.AppendUvarint(out, uint64(l.to))
		out = binary.AppendUvarint(out, uint64(len(l.items)))
		for _, it := range l.items {
			out = append(out, it...)
		}
	}
	return out
}

// refKey is w's state key, composed from refEncode's parts: hashKey over
// the context, each node's hash, and each non-empty link's index, item
// count and sum of its items' hashes.
func refKey(w *world, b budgets) stateKey {
	p := refPartsOf(w, b)
	out := slices.Clone(p.context)
	for _, node := range p.nodes {
		out = appendKey(out, hashKey(node))
	}
	for _, l := range p.links {
		var sum stateKey
		for _, it := range l.items {
			h := hashKey(it)
			sum[0] += h[0]
			sum[1] += h[1]
		}
		out = binary.AppendUvarint(out, uint64(l.from*w.sc.Graph.N+l.to))
		out = binary.AppendUvarint(out, uint64(len(l.items)))
		out = appendKey(out, sum)
	}
	return hashKey(out)
}
