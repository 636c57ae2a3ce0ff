package modelcheck

// The abstract execution environment: a real protocol instance per node
// (built through the ordinary scenario factory), with the MAC/radio
// transport and the timer wheel replaced by a routing.ModelEnv. Outgoing
// messages land in per-link pending multisets; the checker's actions
// deliver, drop, or duplicate them one at a time, and crash-reboot nodes
// and originate flows. Each kind of action is defined in one place, its
// row of the action table (actions.go); this file applies and enumerates
// them by what the row says. Short timers (the
// broadcast-jitter relay delay) run as immediate FIFO microtasks drained
// after every top-level step; long timers (discovery timeouts, cache
// expiry) are discarded — at the model's frozen clock they are
// unreachable, which is part of the abstraction (see DESIGN.md for the
// soundness discussion) — so nothing ever sits on a node's simulator
// queue.
//
// A cursor has one world. The search engine moves it from state to state
// with apply and takes it back with save/restore (snapshot.go); no action
// prefix is replayed from a fresh world. That is exact because everything
// here is deterministic — map iteration never reaches an emission path,
// microtasks run in schedule order — and because a snapshot covers every
// field an action can write: the protocols' (routing.ModelStater), the
// node layer's, and the world's own. So worlds built from one scenario
// are interchangeable, and an exploration builds one per worker
// (modelcheck.go). They share nothing but the protocol factory. A factory
// installed by scenario.RegisterProtocol may share state across the
// instances it builds, so the worlds of its exploration run protocol code
// — construction, Start and each apply — under one mutex (handlers); the
// protocols scenario builds itself share nothing, and theirs run it under
// a lock that does nothing (newCursor).
//
// Locality. An action runs the code of at most one node, its row's actor
// — deliver the receiver's handler, reset and originate the named node's,
// drop and dup nobody's — and that code writes its own node's state and
// appends to its own out-links. The world enforces the second half (a
// send whose sender is not the acting node panics), keeps a record of what
// has been written since the engine last saved or restored (dirtyNodes,
// dirtyLinks), and the engine saves, restores, encodes and table-snapshots
// only that.
// TestActionTouchesOneNode checks the first half against whole-world
// saves.

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// Flow is one scripted data origination: Src sends a packet toward Dst
// when the corresponding Originate action fires.
type Flow struct {
	Src, Dst routing.NodeID
}

// linkMsg is one in-flight item on a directed link. Exactly one of
// msg/pkt is set. root is the slot of the action whose cascade emitted
// it (-1 for emissions during initial Start): delivering a message and
// everything its handler emits happens, under the full simulator, at the
// root action's virtual time — the whole cascade is quasi-instantaneous
// there — so the witness builder maps roots, not emission slots, back to
// simulator time. ref is msg's slot in world.msgs, where its holders are
// counted: an allocation slot, no part of the state. hash is the hash of
// the item's encoding, taken when it was queued (encode.go).
type linkMsg struct {
	msg  routing.Message
	pkt  *routing.DataPacket
	root int32
	ref  int32
	hash stateKey
}

// msgSlot is a control message the world holds, its sender, and how many
// holders it has.
type msgSlot struct {
	msg     routing.Message
	from, n int32
}

// emission records one link crossing (delivered, dropped, or still
// pending) with its causal root slot, for witness reconstruction.
type emission struct {
	from, to routing.NodeID
	root     int
	explicit bool // an explicit Drop action removed it (vs merely in flight)
}

// microDelayMax separates microtask timers from discarded ones: the
// broadcast-jitter relay delay (10 ms) and anything comparably immediate
// runs inline; discovery timeouts (≥160 ms) and cache lifetimes (seconds)
// never fire. The gap between 10 ms and 160 ms is wide enough that the
// threshold is not load-bearing.
const microDelayMax = 50 * time.Millisecond

// microCap bounds a single drain; a protocol whose microtasks re-schedule
// each other unboundedly would otherwise hang the checker silently.
const microCap = 100000

// world is one concrete state of the abstract model: a live network plus
// the pending-message multisets. It implements routing.ModelEnv for every
// node it owns.
type world struct {
	sc      *Scenario
	nbrs    [][]int // graph adjacency, from topo
	nw      *routing.Network
	pending [][]linkMsg // n*n directed slots; only adjacent pairs used
	micro   []microtask // empty between actions

	// Each node's protocol under the interfaces the engine calls, asserted
	// once. vresetters is nil when the protocol has no volatile reset.
	staters    []routing.ModelStater
	tablers    []routing.TableAppender
	vresetters []routing.VolatileResetter

	// actor is the node whose code the current (or latest) action runs, -1
	// for an action that runs none. dirtyNodes and dirtyLinks are bit sets,
	// by node and by pending slot, of what has been written since the
	// cursor last saved or restored the world.
	actor                  int
	dirtyNodes, dirtyLinks uint32

	slot     int // index of the action currently being applied
	curRoot  int // causal root slot for emissions during the current step
	nextFlow int // next unoriginated Scenario.Flows index

	delLog  []emission // every Deliver, with the message's root slot
	dropLog []emission // every explicit Drop, with the victim's root slot

	handlers sync.Locker // held while protocol code runs; one per exploration

	// free holds the world's data packets that nothing else holds. Every
	// data packet in the world is one of the world's or a node's own
	// pooled packet (an origination, until it is sent or restored), and
	// has one holder: a queue, a node's buffer, the handler running or
	// this list. Sending, duplicating and restoring take from it;
	// delivering, dropping, restoring and the node layer's releases give
	// back.
	free []*routing.DataPacket

	// msgs counts the holders of every control message the world has
	// queued: a live queue entry, or an entry of a snapshot's own link
	// record (snapshot.go). When a message's count falls to zero it goes
	// back to its sender's pools, and its slot to freeMsgs. Both start
	// nil, so a world that queues no message allocates neither.
	msgs     []msgSlot
	freeMsgs []int32

	enc encoder // scratch for queued items' hashes and the cursor's keys
}

var _ routing.ModelEnv = (*world)(nil)

// newWorld builds the initial state: a fresh network with every node's
// ModelEnv installed before its protocol starts, then the start-time
// microtask cascade drained. Deterministic: equal scenarios produce
// byte-identical worlds. A protocol without the checker's state hooks is
// an error. The protocol code runs under handlers.
func newWorld(sc *Scenario, handlers sync.Locker) (*world, error) {
	factory, err := scenario.Factory(scenario.Config{Protocol: scenario.ProtocolName(sc.Protocol)})
	if err != nil {
		return nil, err
	}
	n := sc.Graph.N
	w := &world{
		sc:       sc,
		nbrs:     sc.Graph.Neighbors(),
		pending:  make([][]linkMsg, n*n),
		slot:     -1,
		curRoot:  -1,
		actor:    -1,
		handlers: handlers,
	}
	handlers.Lock()
	defer handlers.Unlock()
	// Positions are irrelevant — no frame ever reaches the radio — but the
	// network constructor wants a mobility model.
	w.nw = routing.NewNetwork(n, mobility.NewStatic(make([]mobility.Point, n)),
		mac.DefaultConfig(), sc.Seed, factory)
	w.staters = make([]routing.ModelStater, n)
	w.tablers = make([]routing.TableAppender, n)
	for i, node := range w.nw.Nodes {
		ms, ok := node.Protocol().(routing.ModelStater)
		if !ok {
			return nil, fmt.Errorf("modelcheck: protocol %q does not implement routing.ModelStater (have: ldr, aodv)", sc.Protocol)
		}
		w.staters[i] = ms
		w.tablers[i], _ = node.Protocol().(routing.TableAppender)
		if vr, ok := node.Protocol().(routing.VolatileResetter); ok {
			w.vresetters = append(w.vresetters, vr) // one factory: all nodes or none
		}
		node.SetModelEnv(w)
	}
	for i, node := range w.nw.Nodes {
		w.act(i)
		node.Protocol().Start()
		w.drain()
	}
	w.slot = 0
	return w, nil
}

// act makes node i the acting node: what the rest of the current action
// sends must come from it, and its state counts as written.
func (w *world) act(i int) {
	w.actor = i
	w.dirtyNodes |= 1 << i
}

// appendTable appends node i's routing table to buf (nothing, for a
// protocol that exposes none).
func (w *world) appendTable(buf []routing.RouteEntry, i int) []routing.RouteEntry {
	if w.tablers[i] == nil {
		return buf
	}
	return w.tablers[i].AppendTable(buf)
}

// adjacent reports whether b is a neighbor of a, the acting node.
func (w *world) adjacent(a, b routing.NodeID) bool {
	return slices.Contains(w.nbrs[a], int(b))
}

// sending panics unless from is the acting node: the engine's dirty-node
// save and restore, and any reduction that commutes the actions of
// distinct nodes, rest on a node's code writing nothing but its own state
// and its own out-links.
func (w *world) sending(from routing.NodeID) {
	if int(from) != w.actor {
		panic(fmt.Sprintf("modelcheck: node %d sends while node %d acts", from, w.actor))
	}
}

// hashed returns m with its hash.
func (w *world) hashed(m linkMsg) linkMsg {
	w.enc.buf = w.enc.encodeItem(w.enc.buf[:0], m)
	m.hash = hashKey(w.enc.buf)
	return m
}

// push queues the hashed item m on the link from -> to.
func (w *world) push(from, to routing.NodeID, m linkMsg) {
	li := int(from)*w.sc.Graph.N + int(to)
	w.pending[li] = append(w.pending[li], m)
	w.dirtyLinks |= 1 << li
	w.hold(m)
}

// hold counts one more holder of m's message, if m is one.
func (w *world) hold(m linkMsg) {
	if m.msg != nil {
		w.msgs[m.ref].n++
	}
}

// let counts one holder of m's message fewer, if m is one, and gives the
// message back to its sender when none is left. That runs protocol code:
// the caller holds handlers.
func (w *world) let(m linkMsg) {
	if m.msg == nil {
		return
	}
	if s := &w.msgs[m.ref]; s.n == 1 {
		w.nw.Nodes[s.from].RecycleMessage(s.msg)
		*s = msgSlot{}
		w.freeMsgs = append(w.freeMsgs, m.ref)
	} else {
		s.n--
	}
}

// track gives msg, sent by from, a slot with no holder yet.
func (w *world) track(from routing.NodeID, msg routing.Message) int32 {
	var ref int32
	if n := len(w.freeMsgs); n > 0 {
		ref = w.freeMsgs[n-1]
		w.freeMsgs = w.freeMsgs[:n-1]
	} else {
		ref = int32(len(w.msgs))
		w.msgs = append(w.msgs, msgSlot{})
	}
	w.msgs[ref] = msgSlot{msg: msg, from: int32(from)}
	return ref
}

// ModelSendControl implements routing.ModelEnv. A broadcast fans out to
// every neighbor; the message object is shared between their queue
// entries, which is safe because received control messages are read-only
// by contract, and so is the hash, taken once. The message goes back to
// the sender's pools once no queue entry or saved record holds it (let);
// a message queued nowhere — a unicast to a node that is not a neighbor,
// a broadcast from a node with none — goes back at once.
func (w *world) ModelSendControl(from, to routing.NodeID, msg routing.Message) {
	w.sending(from)
	switch {
	case to == routing.BroadcastID && len(w.nbrs[from]) > 0:
		m := w.hashed(linkMsg{msg: msg, root: int32(w.curRoot), ref: w.track(from, msg)})
		for _, nb := range w.nbrs[from] {
			w.push(from, routing.NodeID(nb), m)
		}
	case to != routing.BroadcastID && w.adjacent(from, to):
		w.push(from, to, w.hashed(linkMsg{msg: msg, root: int32(w.curRoot), ref: w.track(from, msg)}))
	default:
		w.nw.Nodes[from].RecycleMessage(msg)
	}
}

// ModelSendData implements routing.ModelEnv: the link queues a copy from
// the free list, which starts fresh at the next hop (Retried clear). A
// packet sent to a node that is not a neighbor is lost.
func (w *world) ModelSendData(from, next routing.NodeID, pkt *routing.DataPacket) {
	w.sending(from)
	if w.adjacent(from, next) {
		cp := w.copyPacket(pkt)
		cp.Retried = false
		w.push(from, next, w.hashed(linkMsg{pkt: cp, root: int32(w.curRoot)}))
	}
}

// ModelPacket implements routing.ModelEnv.
func (w *world) ModelPacket() *routing.DataPacket {
	if n := len(w.free); n > 0 {
		pkt := w.free[n-1]
		w.free = w.free[:n-1]
		return pkt
	}
	return new(routing.DataPacket)
}

// ModelRelease implements routing.ModelEnv.
func (w *world) ModelRelease(pkt *routing.DataPacket) { w.free = append(w.free, pkt) }

// copyPacket returns a packet from the free list holding a deep copy of
// pkt.
func (w *world) copyPacket(pkt *routing.DataPacket) *routing.DataPacket {
	cp := w.ModelPacket()
	routing.CopyDataPacket(cp, pkt)
	return cp
}

// releaseQueue gives the packets queued on link li back to the free list
// and lets go of its messages. The caller holds handlers.
func (w *world) releaseQueue(li int) {
	for _, m := range w.pending[li] {
		if m.pkt != nil {
			w.ModelRelease(m.pkt)
		} else {
			w.let(m)
		}
	}
}

// ModelSchedule implements routing.ModelEnv: immediate timers become
// microtasks, long timers are dropped. Parking them on the node's
// never-advanced simulator would grow that queue by one closure per
// discovery attempt for as long as the world lives.
func (w *world) ModelSchedule(delay time.Duration, fn func(any, uint64), arg any, u uint64) {
	if delay <= microDelayMax {
		w.micro = append(w.micro, microtask{fn, arg, u})
	}
}

// microtask is one queued immediate timer: fn(arg, u).
type microtask struct {
	fn  func(any, uint64)
	arg any
	u   uint64
}

// drain runs queued microtasks FIFO until quiescence.
func (w *world) drain() {
	for i := 0; i < len(w.micro); i++ {
		if i > microCap {
			panic("modelcheck: microtask cascade did not quiesce")
		}
		t := w.micro[i]
		w.micro[i] = microtask{}
		t.fn(t.arg, t.u)
	}
	w.micro = w.micro[:0]
}

// apply executes one action and drains the resulting cascade. The caller
// guarantees the action is enabled (indices in range, budgets respected);
// apply panics otherwise, because it means the world is not in the state
// the engine believes it restored, and no result can be trusted.
func (w *world) apply(a Action) {
	w.handlers.Lock()
	defer w.handlers.Unlock()
	if !a.Kind.valid() {
		panic(fmt.Sprintf("modelcheck: unknown action %v", a))
	}
	row := &kinds[a.Kind]
	w.curRoot = w.slot
	w.actor = -1
	switch row.shape {
	case onItem:
		li := w.link(a)
		if q := w.pending[li]; a.Index < 0 || a.Index >= len(q) {
			panic(fmt.Sprintf("modelcheck: %v out of range (queue %d)", a, len(q)))
		}
		w.dirtyLinks |= 1 << li
	case onFlow:
		if a.Flow != w.nextFlow || a.Flow >= len(w.sc.Flows) {
			panic(fmt.Sprintf("modelcheck: %v out of order (next %d of %d)", a, w.nextFlow, len(w.sc.Flows)))
		}
	}
	if i := row.actor.of(w.sc, a); i >= 0 {
		w.act(i)
	}
	row.apply(w, a)
	w.drain()
	w.slot++
}

// link is the pending slot of the link an action on a queued item names.
func (w *world) link(a Action) int {
	return int(a.From)*w.sc.Graph.N + int(a.To)
}

// enabled appends to acts every action applicable in the current state,
// in a fixed deterministic order: kind by kind in table order (delivers,
// drops, dups, resets, volatile resets, originations), a kind's actions on
// queued items by link, sorted by (from, to), and queue position, and on
// nodes by node. The order is a pure function of the state, which is what
// makes the search, its counts and its witnesses reproducible.
func (w *world) enabled(acts []Action, b budgets) []Action {
	n := w.sc.Graph.N
	for k := ActDeliver; k < kindEnd; k++ {
		row := &kinds[k]
		if row.budgeted && b[k] <= 0 || row.offered != nil && !row.offered(w) {
			continue
		}
		switch row.shape {
		case onItem:
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					for idx := range w.pending[from*n+to] {
						acts = append(acts, Action{Kind: k, From: routing.NodeID(from), To: routing.NodeID(to), Index: idx})
					}
				}
			}
		case onNode:
			for i := 0; i < n; i++ {
				acts = append(acts, Action{Kind: k, Node: routing.NodeID(i)})
			}
		case onFlow:
			if w.nextFlow < len(w.sc.Flows) {
				acts = append(acts, Action{Kind: k, Flow: w.nextFlow})
			}
		}
	}
	return acts
}
