// Package olsr implements the Optimized Link State Routing protocol
// (Clausen et al., draft-ietf-manet-olsr), the proactive baseline in the
// LDR paper.
//
// OLSR floods topology information continuously: HELLO messages build the
// one- and two-hop neighborhoods and elect multipoint relays (MPRs), and
// TC messages — forwarded only by MPRs — advertise each node's MPR
// selectors network-wide. Every node runs a shortest-path computation over
// the resulting partial topology graph, so routes exist before data needs
// them (the low-latency advantage the paper observes) at the cost of
// constant control overhead.
//
// The paper found "packet jitter problems in the OLSR code from INRIA" and
// introduced a FIFO jitter queue that spaces broadcast transmissions by a
// uniform 0–15 ms while preserving FIFO order; the same queue is
// implemented here (Config.JitterQueue) and its effect is measurable in
// the ablation benchmark.
package olsr

import (
	"sort"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// LinkCode describes a neighbor's status inside a HELLO.
type LinkCode uint8

// Link codes, a condensed version of RFC 3626 §6.
const (
	LinkAsym LinkCode = iota + 1 // heard them; not yet bidirectional
	LinkSym                      // bidirectional
	LinkMPR                      // bidirectional and selected as our MPR
)

// Config holds the one thing an experiment varies about OLSR: the
// paper's FIFO jitter queue (the ablation's olsr-nojitter row turns it
// off). The intervals are the RFC-3626 defaults, as constants.
type Config struct {
	JitterQueue bool
}

const (
	helloInterval = 2 * time.Second
	tcInterval    = 5 * time.Second
	neighborHold  = 6 * time.Second       // link expiry (3 × hello)
	topologyHold  = 15 * time.Second      // TC tuple expiry (3 × TC)
	dupHold       = 30 * time.Second      // duplicate-set retention
	maxJitter     = 15 * time.Millisecond // uniform inter-packet jitter bound
	netDiameter   = 35
)

// DefaultConfig returns the configuration with the paper's jitter-queue
// fix enabled.
func DefaultConfig() Config {
	return Config{JitterQueue: true}
}

// HelloNeighbor is one entry in a HELLO message.
type HelloNeighbor struct {
	ID   routing.NodeID
	Code LinkCode
}

// Hello advertises this node's current neighborhood. Never forwarded.
type Hello struct {
	Origin    routing.NodeID
	Neighbors []HelloNeighbor
}

// Kind implements routing.Message.
func (Hello) Kind() metrics.ControlKind { return metrics.Hello }

// Size implements routing.Message: computed arithmetically from the wire
// layout so the periodic send path does not marshal; the wire round-trip
// tests pin it to len(Marshal()).
func (h Hello) Size() int { return helloWireBase + helloWirePerNbr*len(h.Neighbors) }

// TC advertises the origin's MPR selector set; flooded via MPRs.
type TC struct {
	Origin    routing.NodeID
	Seq       uint16 // message sequence number for duplicate suppression
	ANSN      uint16 // advertised neighbor sequence number
	Selectors []routing.NodeID
	TTL       int
}

// Kind implements routing.Message.
func (TC) Kind() metrics.ControlKind { return metrics.TC }

// Size implements routing.Message.
func (t TC) Size() int { return tcWireBase + tcWirePerSel*len(t.Selectors) }

// Wire sizes of the fixed-layout prefixes (type byte and entry-count
// fields included); pinned against Marshal by the wire round-trip tests.
const (
	helloWireBase   = 1 + 4 + 2
	helloWirePerNbr = 4 + 1
	tcWireBase      = 1 + 4 + 2 + 2 + 1 + 2
	tcWirePerSel    = 4
)

type linkState struct {
	symmetric bool
	isMPR     bool // we selected this neighbor as MPR
	expiry    time.Duration
}

type topoTuple struct {
	lastHop routing.NodeID // TC origin
	ansn    uint16
	expiry  time.Duration
}

type dupKey struct {
	origin routing.NodeID
	seq    uint16
}

// OLSR is one node's protocol instance.
type OLSR struct {
	node *routing.Node
	cfg  Config

	links     map[routing.NodeID]*linkState
	twoHop    map[routing.NodeID]map[routing.NodeID]time.Duration // neighbor → its neighbors → expiry
	selectors map[routing.NodeID]time.Duration                    // neighbors that chose us as MPR
	topology  map[routing.NodeID]map[routing.NodeID]topoTuple     // dest → lastHop → tuple
	dup       map[dupKey]time.Duration

	routes     map[routing.NodeID]routing.NodeID // dest → next hop
	hops       map[routing.NodeID]int
	dirty      bool
	ansn       uint16
	msgSeq     uint16
	helloTimer sim.Timer
	tcTimer    sim.Timer
	sweeper    sim.Timer
	queue      *jitterQueue
	stopped    bool

	// Run-local message pools: wire messages are pooled pointers recycled
	// by the sending node once the MAC releases the frame.
	helloPool runpool.Pool[Hello]
	tcPool    runpool.Pool[TC]
}

var (
	_ routing.Protocol           = (*OLSR)(nil)
	_ routing.TableSnapshotter   = (*OLSR)(nil)
	_ routing.TableAppender      = (*OLSR)(nil)
	_ routing.Resetter           = (*OLSR)(nil)
	_ routing.DataFailureHandler = (*OLSR)(nil)
	_ routing.MessageRecycler    = (*OLSR)(nil)
)

// New builds an OLSR instance bound to a node.
func New(node *routing.Node, cfg Config) *OLSR {
	o := &OLSR{
		node:      node,
		cfg:       cfg,
		links:     make(map[routing.NodeID]*linkState),
		twoHop:    make(map[routing.NodeID]map[routing.NodeID]time.Duration),
		selectors: make(map[routing.NodeID]time.Duration),
		topology:  make(map[routing.NodeID]map[routing.NodeID]topoTuple),
		dup:       make(map[dupKey]time.Duration),
		routes:    make(map[routing.NodeID]routing.NodeID),
		hops:      make(map[routing.NodeID]int),
	}
	o.queue = newJitterQueue(o, cfg)
	return o
}

// Start implements routing.Protocol: begins the HELLO/TC emission cycle,
// desynchronized across nodes by a random initial phase.
func (o *OLSR) Start() {
	helloPhase := time.Duration(o.node.RNG().Float64() * float64(helloInterval))
	tcPhase := helloInterval + time.Duration(o.node.RNG().Float64()*float64(tcInterval))
	o.helloTimer = o.node.Schedule(helloPhase, o.sendHello)
	o.tcTimer = o.node.Schedule(tcPhase, o.sendTC)
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

// Stop implements routing.Protocol.
func (o *OLSR) Stop() {
	o.stopped = true
	o.helloTimer.Cancel()
	o.tcTimer.Cancel()
	o.sweeper.Cancel()
}

// Reset implements routing.Resetter: a crash clears the entire link-state
// view — links, two-hop sets, MPR selectors, topology tuples, duplicate
// table, and computed routes — and cancels the periodic timers, which
// Start re-arms with fresh phases at reboot. ansn and msgSeq survive:
// they version this node's advertisements, and restarting them at zero
// would make neighbors' duplicate and topology tables discard the
// rebooted node's fresh messages as stale for a full holding time.
func (o *OLSR) Reset() {
	o.helloTimer.Cancel()
	o.tcTimer.Cancel()
	o.sweeper.Cancel()
	o.helloTimer, o.tcTimer, o.sweeper = sim.Timer{}, sim.Timer{}, sim.Timer{}
	clear(o.links)
	clear(o.twoHop)
	clear(o.selectors)
	clear(o.topology)
	clear(o.dup)
	clear(o.routes)
	clear(o.hops)
	o.dirty = false
	o.queue.reset()
}

// WalkHeldControl implements routing.HeldControlWalker: messages sitting
// in the jitter queue have been counted as initiated (or are relayed
// floods) but have not reached SendControl yet, so the conformance
// control ledger must see them as held rather than vanished.
func (o *OLSR) WalkHeldControl(fn func(metrics.ControlKind)) {
	for _, msg := range o.queue.queue {
		fn(msg.Kind())
	}
}

// --- periodic emission ---

func (o *OLSR) sendHello() {
	if o.stopped {
		return
	}
	o.recomputeMPRs()
	h := o.helloPool.Get()
	neighbors := h.Neighbors
	*h = Hello{Origin: o.node.ID(), Neighbors: neighbors[:0]}
	for id, l := range o.links {
		code := LinkAsym
		switch {
		case l.symmetric && l.isMPR:
			code = LinkMPR
		case l.symmetric:
			code = LinkSym
		}
		h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: id, Code: code})
	}
	sort.Slice(h.Neighbors, func(i, j int) bool { return h.Neighbors[i].ID < h.Neighbors[j].ID })
	o.node.Metrics().CountControlInitiate(metrics.Hello)
	o.queue.push(h)
	o.helloTimer = o.node.Schedule(helloInterval, o.sendHello)
}

func (o *OLSR) sendTC() {
	if o.stopped {
		return
	}
	if len(o.selectors) > 0 {
		o.msgSeq++
		tc := o.tcPool.Get()
		selectors := tc.Selectors
		*tc = TC{
			Origin:    o.node.ID(),
			Seq:       o.msgSeq,
			ANSN:      o.ansn,
			TTL:       netDiameter,
			Selectors: selectors[:0],
		}
		for id := range o.selectors {
			tc.Selectors = append(tc.Selectors, id)
		}
		sortNodeIDs(tc.Selectors)
		o.node.Metrics().CountControlInitiate(metrics.TC)
		o.queue.push(tc)
	}
	o.tcTimer = o.node.Schedule(tcInterval, o.sendTC)
}

// sweep expires links, two-hop tuples, selectors, topology, and duplicate
// entries once per second.
func (o *OLSR) sweep() {
	if o.stopped {
		return
	}
	now := o.node.Now()
	for id, l := range o.links {
		if l.expiry <= now {
			delete(o.links, id)
			delete(o.twoHop, id)
			o.dirty = true
		}
	}
	for n, set := range o.twoHop {
		for th, exp := range set {
			if exp <= now {
				delete(set, th)
				o.dirty = true
			}
		}
		if len(set) == 0 {
			delete(o.twoHop, n)
		}
	}
	for id, exp := range o.selectors {
		if exp <= now {
			delete(o.selectors, id)
			o.ansn++
		}
	}
	for dst, set := range o.topology {
		for last, tup := range set {
			if tup.expiry <= now {
				delete(set, last)
				o.dirty = true
			}
		}
		if len(set) == 0 {
			delete(o.topology, dst)
		}
	}
	for k, exp := range o.dup {
		if exp <= now {
			delete(o.dup, k)
		}
	}
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (o *OLSR) HandleControl(from routing.NodeID, msg routing.Message) {
	if o.stopped {
		return
	}
	// The wire path delivers pooled pointer messages (read-only, valid
	// only during the call); tests and the adversary layer may still hand
	// in plain values.
	switch m := msg.(type) {
	case *Hello:
		o.handleHello(from, *m)
	case Hello:
		o.handleHello(from, m)
	case *TC:
		o.handleTC(from, *m)
	case TC:
		o.handleTC(from, m)
	}
}

func (o *OLSR) handleHello(from routing.NodeID, h Hello) {
	now := o.node.Now()
	me := o.node.ID()

	l := o.links[from]
	if l == nil {
		l = &linkState{}
		o.links[from] = l
		o.dirty = true
	}
	l.expiry = now + neighborHold

	heardUs := false
	selectedUs := false
	for _, n := range h.Neighbors {
		if n.ID == me {
			heardUs = true
			selectedUs = n.Code == LinkMPR
		}
	}
	if heardUs != l.symmetric {
		l.symmetric = heardUs
		o.dirty = true
	}

	if selectedUs {
		if _, ok := o.selectors[from]; !ok {
			o.ansn++
		}
		o.selectors[from] = now + neighborHold
	} else if _, ok := o.selectors[from]; ok {
		delete(o.selectors, from)
		o.ansn++
	}

	// Two-hop neighborhood: symmetric neighbors of a symmetric neighbor.
	if l.symmetric {
		set := o.twoHop[from]
		if set == nil {
			set = make(map[routing.NodeID]time.Duration)
			o.twoHop[from] = set
		}
		for _, n := range h.Neighbors {
			if n.ID == me || n.Code == LinkAsym {
				continue
			}
			if _, ok := set[n.ID]; !ok {
				o.dirty = true
			}
			set[n.ID] = now + neighborHold
		}
	}
}

func (o *OLSR) handleTC(from routing.NodeID, tc TC) {
	me := o.node.ID()
	if tc.Origin == me {
		return
	}
	now := o.node.Now()

	// Only process TCs arriving over a symmetric link (RFC 3626 §9.2).
	l := o.links[from]
	if l == nil || !l.symmetric {
		return
	}

	key := dupKey{origin: tc.Origin, seq: tc.Seq}
	_, isDup := o.dup[key]
	o.dup[key] = now + dupHold

	if !isDup {
		// Discard stale information per ANSN (RFC 3626 §9.5 step 2): the
		// comparison is against the tuples this originator installed
		// (T_last_addr == originator), not the tuples that name it as a
		// destination — those carry other nodes' counters. Every tuple of
		// one originator shares its ANSN, so the first one found decides.
		fresh := true
		for _, tset := range o.topology {
			if tup, ok := tset[tc.Origin]; ok {
				fresh = !seqGreater(tup.ansn, tc.ANSN)
				break
			}
		}
		if fresh {
			// Rebuild the origin's advertised set.
			for dst, tset := range o.topology {
				if _, ok := tset[tc.Origin]; ok {
					delete(tset, tc.Origin)
					if len(tset) == 0 {
						delete(o.topology, dst)
					}
				}
			}
			for _, sel := range tc.Selectors {
				if sel == me {
					continue
				}
				tset := o.topology[sel]
				if tset == nil {
					tset = make(map[routing.NodeID]topoTuple)
					o.topology[sel] = tset
				}
				tset[tc.Origin] = topoTuple{
					lastHop: tc.Origin,
					ansn:    tc.ANSN,
					expiry:  now + topologyHold,
				}
			}
			o.dirty = true
		}
	}

	// MPR forwarding: relay only if the sender selected us as MPR.
	if isDup || tc.TTL <= 1 {
		return
	}
	if _, selected := o.selectors[from]; !selected {
		return
	}
	// The incoming tc's Selectors alias the sender's pooled message, which
	// is recycled once its frame completes; the jitter queue outlives that,
	// so the relayed copy must own its selector list.
	fwd := o.tcPool.Get()
	selectors := fwd.Selectors
	*fwd = tc
	fwd.Selectors = append(selectors[:0], tc.Selectors...)
	fwd.TTL--
	o.queue.pushForward(fwd)
}

// RecycleMessage implements routing.MessageRecycler.
func (o *OLSR) RecycleMessage(msg routing.Message) {
	switch m := msg.(type) {
	case *Hello:
		m.Neighbors = m.Neighbors[:0]
		o.helloPool.Put(m)
	case *TC:
		m.Selectors = m.Selectors[:0]
		o.tcPool.Put(m)
	}
}

// sortNodeIDs sorts in place; wire formats and BFS expansion use it so no
// observable behaviour depends on map iteration order.
func sortNodeIDs(ids []routing.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// seqGreater compares 16-bit sequence numbers with wraparound.
func seqGreater(a, b uint16) bool {
	return (a > b && a-b <= 32768) || (a < b && b-a > 32768)
}

// --- MPR selection ---

// recomputeMPRs runs the greedy RFC 3626 §8.3.1 heuristic: first take
// neighbors that are the sole reach to some two-hop node, then repeatedly
// take the neighbor covering the most uncovered two-hop nodes.
func (o *OLSR) recomputeMPRs() {
	now := o.node.Now()
	// Uncovered two-hop set (excluding me and direct neighbors).
	uncovered := make(map[routing.NodeID]struct{})
	reach := make(map[routing.NodeID][]routing.NodeID) // neighbor → two-hops
	for n, l := range o.links {
		if !l.symmetric {
			continue
		}
		for th, exp := range o.twoHop[n] {
			if exp <= now || th == o.node.ID() {
				continue
			}
			if ln, direct := o.links[th]; direct && ln.symmetric {
				continue
			}
			uncovered[th] = struct{}{}
			reach[n] = append(reach[n], th)
		}
	}
	mpr := make(map[routing.NodeID]bool)
	// Mandatory: sole providers.
	counts := make(map[routing.NodeID]int) // two-hop → #neighbors reaching it
	for _, ths := range reach {
		for _, th := range ths {
			counts[th]++
		}
	}
	for n, ths := range reach {
		for _, th := range ths {
			if counts[th] == 1 {
				mpr[n] = true
				break
			}
		}
	}
	cover := func(n routing.NodeID) {
		for _, th := range reach[n] {
			delete(uncovered, th)
		}
	}
	for n := range mpr {
		cover(n)
	}
	// Greedy: highest coverage first; ties broken by lowest ID for
	// determinism.
	for len(uncovered) > 0 {
		best := routing.NodeID(-1)
		bestCount := 0
		for n := range reach {
			if mpr[n] {
				continue
			}
			c := 0
			for _, th := range reach[n] {
				if _, ok := uncovered[th]; ok {
					c++
				}
			}
			if c > bestCount || (c == bestCount && c > 0 && (best < 0 || n < best)) {
				best = n
				bestCount = c
			}
		}
		if best < 0 || bestCount == 0 {
			break
		}
		mpr[best] = true
		cover(best)
	}
	for n, l := range o.links {
		l.isMPR = mpr[n]
	}
}

// --- routing table (shortest path over the partial topology graph) ---

// recompute rebuilds the routing table with a BFS over: symmetric links,
// two-hop tuples, and TC topology edges.
func (o *OLSR) recompute() {
	now := o.node.Now()
	me := o.node.ID()
	o.routes = make(map[routing.NodeID]routing.NodeID)
	o.hops = make(map[routing.NodeID]int)

	type qe struct {
		node routing.NodeID
		next routing.NodeID // first hop on the path
		dist int
	}
	// Expansion order must not depend on map iteration order: equal-cost
	// destinations keep whichever first hop the BFS reaches first, and a
	// run-to-run change there changes forwarding (and so the whole
	// simulation). Seed and expand in sorted NodeID order.
	var queue []qe
	neigh := make([]routing.NodeID, 0, len(o.links))
	for n, l := range o.links {
		if l.symmetric {
			neigh = append(neigh, n)
		}
	}
	sortNodeIDs(neigh)
	for _, n := range neigh {
		o.routes[n] = n
		o.hops[n] = 1
		queue = append(queue, qe{node: n, next: n, dist: 1})
	}
	var targets []routing.NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		targets = targets[:0]
		// Two-hop tuples extend one hop past direct neighbors.
		for th, exp := range o.twoHop[cur.node] {
			if exp > now {
				targets = append(targets, th)
			}
		}
		// Topology tuples: lastHop → dest edges from TCs.
		for dst, tset := range o.topology {
			if tup, ok := tset[cur.node]; ok && tup.expiry > now {
				targets = append(targets, dst)
			}
		}
		sortNodeIDs(targets)
		for _, to := range targets {
			if to == me {
				continue
			}
			if _, seen := o.routes[to]; seen {
				continue
			}
			o.routes[to] = cur.next
			o.hops[to] = cur.dist + 1
			queue = append(queue, qe{node: to, next: cur.next, dist: cur.dist + 1})
		}
	}
	o.dirty = false
}

// --- data plane ---

// Originate implements routing.Protocol.
func (o *OLSR) Originate(pkt *routing.DataPacket) { o.forward(pkt) }

// HandleData implements routing.Protocol.
func (o *OLSR) HandleData(_ routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == o.node.ID() {
		o.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		o.node.DropData(pkt, routing.DropTTL)
		return
	}
	o.forward(pkt)
}

func (o *OLSR) forward(pkt *routing.DataPacket) {
	if o.dirty {
		o.recompute()
	}
	next, ok := o.routes[pkt.Dst]
	if !ok {
		o.node.DropData(pkt, routing.DropNoRoute)
		return
	}
	o.node.SendData(next, pkt)
}

// DataFailed implements routing.DataFailureHandler. Retried distinguishes
// the two failure stages that used to be chained closures: a first failure
// runs route maintenance, a failure of the retry drops the packet.
func (o *OLSR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Retried {
		o.node.DropData(pkt, routing.DropLinkBreak)
		return
	}
	if o.stopped {
		return
	}
	o.linkFailure(next, pkt)
}

// linkFailure drops the link immediately rather than waiting out the
// HELLO hold time, then retries the packet once over a recomputed table.
func (o *OLSR) linkFailure(next routing.NodeID, pkt *routing.DataPacket) {
	delete(o.links, next)
	delete(o.twoHop, next)
	o.dirty = true
	o.recompute()
	if alt, ok := o.routes[pkt.Dst]; ok && alt != next {
		pkt.Retried = true
		o.node.SendData(alt, pkt)
		return
	}
	o.node.DropData(pkt, routing.DropLinkBreak)
}

// --- observability ---

// SnapshotTable implements routing.TableSnapshotter.
func (o *OLSR) SnapshotTable() []routing.RouteEntry {
	return o.AppendTable(make([]routing.RouteEntry, 0, len(o.routes)))
}

// AppendTable implements routing.TableAppender.
func (o *OLSR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	if o.dirty {
		o.recompute()
	}
	for dst, next := range o.routes {
		out = append(out, routing.RouteEntry{
			Dst: dst, Next: next, Metric: o.hops[dst], Valid: true,
		})
	}
	return out
}

// RouteTo exposes (next hop, hop count, ok) for tests and examples.
func (o *OLSR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	if o.dirty {
		o.recompute()
	}
	next, ok := o.routes[dst]
	return next, o.hops[dst], ok
}

// MPRs returns the node's currently selected multipoint relays (tests).
func (o *OLSR) MPRs() []routing.NodeID {
	var out []routing.NodeID
	for n, l := range o.links {
		if l.isMPR {
			out = append(out, n)
		}
	}
	return out
}

// --- the paper's FIFO jitter queue ---

// jitterQueue spaces broadcast control transmissions by a uniform jitter
// while preserving FIFO order (§4: "We introduce a new FIFO jitter queue
// to OLSR... adds a uniformly chosen inter-packet jitter between 0 and
// 15 ms and maintains FIFO packet order").
type jitterQueue struct {
	o     *OLSR
	queue []routing.Message
	busy  bool
}

func newJitterQueue(o *OLSR, _ Config) *jitterQueue {
	return &jitterQueue{o: o}
}

// push enqueues a locally originated broadcast message.
func (q *jitterQueue) push(msg routing.Message) {
	if !q.o.cfg.JitterQueue {
		q.o.node.SendControl(routing.BroadcastID, msg, nil)
		return
	}
	q.queue = append(q.queue, msg)
	q.kick()
}

// pushForward enqueues a flooded (relayed) message; identical to push,
// named for call-site clarity.
func (q *jitterQueue) pushForward(msg routing.Message) { q.push(msg) }

func (q *jitterQueue) kick() {
	if q.busy || len(q.queue) == 0 {
		return
	}
	q.busy = true
	jitter := time.Duration(q.o.node.RNG().Float64() * float64(maxJitter))
	q.o.node.Schedule(jitter, q.pop)
}

// reset drops all queued messages (crash path), counting each as a
// pre-transmission control drop so the conformance ledger can still
// account for every initiated packet. A pending pop event may still
// fire; it finds the queue empty, clears busy, and stops — so the flag
// is deliberately left alone here rather than cleared under it.
func (q *jitterQueue) reset() {
	for i, msg := range q.queue {
		q.o.node.Metrics().CountControlDrop(msg.Kind())
		q.o.RecycleMessage(msg)
		q.queue[i] = nil
	}
	q.queue = q.queue[:0]
}

func (q *jitterQueue) pop() {
	q.busy = false
	if q.o.stopped || len(q.queue) == 0 {
		return
	}
	msg := q.queue[0]
	q.queue[0] = nil
	q.queue = q.queue[1:]
	q.o.node.SendControl(routing.BroadcastID, msg, nil)
	q.kick()
}
