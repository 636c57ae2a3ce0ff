package modelcheck

// The abstract execution environment: a real protocol instance per node
// (built through the ordinary scenario factory), with the MAC/radio
// transport and the timer wheel replaced by a routing.ModelEnv. Outgoing
// messages land in per-link pending multisets; the checker's actions
// deliver, drop, or duplicate them one at a time. Short timers (the
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
// (modelcheck.go). They share nothing but the protocol factory, which may
// share state across the instances it builds, so every world of an
// exploration runs protocol code — construction, Start and each apply —
// under one lock (handlers).
//
// Locality. An action runs the code of at most one node — deliver the
// receiver's handler, reset and originate the named node's, drop and dup
// nobody's — and that code writes its own node's state and appends to its
// own out-links. The world enforces the second half (a send whose sender
// is not the acting node panics), keeps a record of what has been written
// since the engine last saved or restored (dirtyNodes, dirtyLinks), and
// the engine saves, restores, encodes and table-snapshots only that.
// TestActionTouchesOneNode checks the first half against whole-world
// saves.

import (
	"fmt"
	"sync"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// ActionKind enumerates the checker's transition types.
type ActionKind uint8

const (
	// ActDeliver hands one pending message on a link to its receiver.
	ActDeliver ActionKind = iota + 1
	// ActDrop discards one pending message (link-layer loss).
	ActDrop
	// ActDup appends a copy of a pending message (link-layer duplication).
	ActDup
	// ActReset crash-reboots a node through its ordinary Resetter —
	// whatever the protocol persists across crashes survives.
	ActReset
	// ActResetVolatile crash-reboots a node wiping even the protocol's
	// stable storage (routing.VolatileResetter).
	ActResetVolatile
	// ActOriginate injects the scenario's next data flow at its source.
	ActOriginate
)

// Action is one transition of the abstract model.
type Action struct {
	Kind     ActionKind
	From, To routing.NodeID // directed link, for Deliver/Drop/Dup
	Index    int            // position in that link's pending queue
	Node     routing.NodeID // for Reset/ResetVolatile
	Flow     int            // for Originate: index into Scenario.Flows
}

// String renders the action for witnesses and progress output.
func (a Action) String() string {
	switch a.Kind {
	case ActDeliver:
		return fmt.Sprintf("deliver %d->%d[%d]", a.From, a.To, a.Index)
	case ActDrop:
		return fmt.Sprintf("drop %d->%d[%d]", a.From, a.To, a.Index)
	case ActDup:
		return fmt.Sprintf("dup %d->%d[%d]", a.From, a.To, a.Index)
	case ActReset:
		return fmt.Sprintf("reset %d", a.Node)
	case ActResetVolatile:
		return fmt.Sprintf("reset-volatile %d", a.Node)
	case ActOriginate:
		return fmt.Sprintf("originate flow %d", a.Flow)
	}
	return fmt.Sprintf("action(%d)", a.Kind)
}

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
// simulator time. hash is the hash of the item's encoding, taken when it
// was queued (encode.go).
type linkMsg struct {
	msg  routing.Message
	pkt  *routing.DataPacket
	root int
	hash stateKey
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
	adj     []bool  // n*n adjacency matrix
	nw      *routing.Network
	pending [][]linkMsg // n*n directed slots; only adjacent pairs used
	micro   []func()    // empty between actions

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

	lostUnicasts int // unicasts addressed to non-neighbors (sent into the void)

	handlers *sync.Mutex // held while protocol code runs; one per exploration

	enc encoder // scratch for queued items' hashes and the cursor's keys
}

var _ routing.ModelEnv = (*world)(nil)

// newWorld builds the initial state: a fresh network with every node's
// ModelEnv installed before its protocol starts, then the start-time
// microtask cascade drained. Deterministic: equal scenarios produce
// byte-identical worlds. A protocol without the checker's state hooks is
// an error. The protocol code runs under handlers.
func newWorld(sc *Scenario, handlers *sync.Mutex) (*world, error) {
	factory, err := scenario.Factory(scenario.ProtocolName(sc.Protocol), sc.LDRConfig)
	if err != nil {
		return nil, err
	}
	n := sc.Graph.N
	w := &world{
		sc:       sc,
		nbrs:     sc.Graph.Neighbors(),
		adj:      make([]bool, n*n),
		pending:  make([][]linkMsg, n*n),
		slot:     -1,
		curRoot:  -1,
		actor:    -1,
		handlers: handlers,
	}
	handlers.Lock()
	defer handlers.Unlock()
	for _, e := range sc.Graph.Edges {
		w.adj[e[0]*n+e[1]] = true
		w.adj[e[1]*n+e[0]] = true
	}
	// Positions are irrelevant — no frame ever reaches the radio — but the
	// network constructor wants a mobility model.
	w.nw = routing.NewNetwork(n, mobility.NewStatic(make([]mobility.Point, n)),
		radio.DefaultConfig(), mac.DefaultConfig(), sc.Seed, factory)
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

func (w *world) adjacent(a, b routing.NodeID) bool {
	n := w.sc.Graph.N
	if int(a) < 0 || int(a) >= n || int(b) < 0 || int(b) >= n {
		return false
	}
	return w.adj[int(a)*n+int(b)]
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
}

// ModelSendControl implements routing.ModelEnv. A broadcast fans out to
// every neighbor; the message object is shared between their queue
// entries, which is safe because received control messages are read-only
// by contract and the protocol's pools never get the object back (no
// frame is ever released under the model). So is the hash, taken once.
func (w *world) ModelSendControl(from, to routing.NodeID, msg routing.Message) {
	w.sending(from)
	if to == routing.BroadcastID {
		m := w.hashed(linkMsg{msg: msg, root: w.curRoot})
		for _, nb := range w.nbrs[from] {
			w.push(from, routing.NodeID(nb), m)
		}
		return
	}
	if w.adjacent(from, to) {
		w.push(from, to, w.hashed(linkMsg{msg: msg, root: w.curRoot}))
		return
	}
	w.lostUnicasts++
}

// ModelSendData implements routing.ModelEnv. The packet is already an
// unpooled deep copy owned by the environment.
func (w *world) ModelSendData(from, next routing.NodeID, pkt *routing.DataPacket) {
	w.sending(from)
	if w.adjacent(from, next) {
		w.push(from, next, w.hashed(linkMsg{pkt: pkt, root: w.curRoot}))
		return
	}
	w.lostUnicasts++
}

// ModelSchedule implements routing.ModelEnv: immediate timers become
// microtasks, long timers are dropped. Parking them on the node's
// never-advanced simulator would grow that queue by one closure per
// discovery attempt for as long as the world lives.
func (w *world) ModelSchedule(delay time.Duration, fn func()) {
	if delay <= microDelayMax {
		w.micro = append(w.micro, fn)
	}
}

// drain runs queued microtasks FIFO until quiescence.
func (w *world) drain() {
	for i := 0; i < len(w.micro); i++ {
		if i > microCap {
			panic("modelcheck: microtask cascade did not quiesce")
		}
		fn := w.micro[i]
		w.micro[i] = nil
		fn()
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
	n := w.sc.Graph.N
	w.curRoot = w.slot
	w.actor = -1
	switch a.Kind {
	case ActDeliver, ActDrop, ActDup:
		li := int(a.From)*n + int(a.To)
		q := w.pending[li]
		if a.Index < 0 || a.Index >= len(q) {
			panic(fmt.Sprintf("modelcheck: %v out of range (queue %d)", a, len(q)))
		}
		m := q[a.Index]
		w.dirtyLinks |= 1 << li
		switch a.Kind {
		case ActDeliver:
			w.act(int(a.To))
			// The handler's own emissions inherit the delivered message's
			// causal root: under the full simulator, delivery and reaction
			// both happen at the root emission's instant.
			w.curRoot = m.root
			w.pending[li] = append(q[:a.Index], q[a.Index+1:]...)
			w.delLog = append(w.delLog, emission{from: a.From, to: a.To, root: m.root})
			proto := w.nw.Nodes[a.To].Protocol()
			if m.msg != nil {
				proto.HandleControl(a.From, m.msg)
			} else {
				proto.HandleData(a.From, m.pkt)
			}
		case ActDrop:
			w.pending[li] = append(q[:a.Index], q[a.Index+1:]...)
			w.dropLog = append(w.dropLog, emission{from: a.From, to: a.To, root: m.root, explicit: true})
		case ActDup:
			cp := m // same airing, same causal root, same hash: a radio-level duplicate
			if m.pkt != nil {
				cp.pkt = routing.CloneDataPacket(m.pkt)
			}
			w.pending[li] = append(q, cp)
		}
	case ActReset:
		w.act(int(a.Node))
		node := w.nw.Nodes[a.Node]
		node.Crash()
		node.SetDown(false)
		node.Protocol().Start()
	case ActResetVolatile:
		if w.vresetters == nil {
			panic(fmt.Sprintf("modelcheck: %v on protocol without VolatileResetter", a))
		}
		w.act(int(a.Node))
		node := w.nw.Nodes[a.Node]
		node.SetDown(true)
		w.vresetters[a.Node].ResetVolatile()
		node.SetDown(false)
		node.Protocol().Start()
	case ActOriginate:
		if a.Flow != w.nextFlow || a.Flow >= len(w.sc.Flows) {
			panic(fmt.Sprintf("modelcheck: %v out of order (next %d of %d)", a, w.nextFlow, len(w.sc.Flows)))
		}
		f := w.sc.Flows[a.Flow]
		w.nextFlow++
		w.act(int(f.Src))
		w.nw.Nodes[f.Src].OriginateData(f.Dst, originateBytes)
	default:
		panic(fmt.Sprintf("modelcheck: unknown action %v", a))
	}
	w.drain()
	w.slot++
}

// originateBytes is the payload size of model-injected packets; it only
// matters because it is part of the state encoding and of the witness's
// scripted traffic.
const originateBytes = 512

// budgets are the remaining allowances for the fault-flavored actions.
type budgets struct {
	drops, dups, resets, vresets int
}

// enabled appends to acts every action applicable in the current state,
// in a fixed deterministic order: delivers (links sorted by (from, to),
// queue order), then drops, dups, resets, volatile resets, and finally
// the next origination. The order is a pure function of the state, which
// is what makes the search, its counts and its witnesses reproducible.
func (w *world) enabled(acts []Action, b budgets) []Action {
	n := w.sc.Graph.N
	forEachPending := func(kind ActionKind) {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				for idx := range w.pending[from*n+to] {
					acts = append(acts, Action{Kind: kind, From: routing.NodeID(from), To: routing.NodeID(to), Index: idx})
				}
			}
		}
	}
	forEachPending(ActDeliver)
	if b.drops > 0 {
		forEachPending(ActDrop)
	}
	if b.dups > 0 {
		forEachPending(ActDup)
	}
	if b.resets > 0 {
		for i := 0; i < n; i++ {
			acts = append(acts, Action{Kind: ActReset, Node: routing.NodeID(i)})
		}
	}
	if b.vresets > 0 && w.vresetters != nil {
		for i := 0; i < n; i++ {
			acts = append(acts, Action{Kind: ActResetVolatile, Node: routing.NodeID(i)})
		}
	}
	if w.nextFlow < len(w.sc.Flows) {
		acts = append(acts, Action{Kind: ActOriginate, Flow: w.nextFlow})
	}
	return acts
}
