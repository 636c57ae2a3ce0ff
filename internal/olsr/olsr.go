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
	"slices"
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
func (*Hello) Kind() metrics.ControlKind { return metrics.Hello }

// Size implements routing.Message: the bytes on air, growing by one
// (id, link code) pair per neighbor.
func (h *Hello) Size() int { return helloWireBase + helloWirePerNbr*len(h.Neighbors) }

// TC advertises the origin's MPR selector set; flooded via MPRs.
type TC struct {
	Origin    routing.NodeID
	Seq       uint16 // message sequence number for duplicate suppression
	ANSN      uint16 // advertised neighbor sequence number
	Selectors []routing.NodeID
	TTL       int
}

// Kind implements routing.Message.
func (*TC) Kind() metrics.ControlKind { return metrics.TC }

// Size implements routing.Message.
func (t *TC) Size() int { return tcWireBase + tcWirePerSel*len(t.Selectors) }

// Wire sizes of the fixed-layout prefixes (type byte and entry-count
// fields included); each field's width is listed in
// scenario.TestMessageLayouts.
const (
	helloWireBase   = 1 + 4 + 2
	helloWirePerNbr = 4 + 1
	tcWireBase      = 1 + 4 + 2 + 2 + 1 + 2
	tcWirePerSel    = 4
)

// All link state is held in slices indexed by NodeID and grown on first
// sight (grow): every id in this repository is a small non-negative
// integer, a Network numbers its nodes 0..n-1. The zero value of each
// record means "no such tuple", so growing and Reset are plain zeroing.
// Ids stored inside the records are int32 to halve what they occupy.

// neighbor is the link tuple toward one one-hop neighbor and the two-hop
// tuples learned from its HELLOs, which live and die with the link.
type neighbor struct {
	link      bool // a HELLO was heard within neighborHold
	symmetric bool
	isMPR     bool // we selected this neighbor as MPR
	expiry    time.Duration
	twoHop    []held // by node id, ascending, never ours; released with the link
}

// held is a tuple that is nothing but a key and an expiry: a two-hop
// tuple under its neighbor (key: the two-hop node's id) or a duplicate
// tuple under its originator (key: the message sequence number).
type held struct {
	key    int32
	expiry time.Duration
}

// dropExpired removes, in place, the tuples whose holding time has run
// out. Most sweeps find none, so nothing is written until one is found.
func dropExpired(ts []held, now time.Duration) []held {
	for i := range ts {
		if ts[i].expiry <= now {
			live := ts[:i]
			for _, t := range ts[i+1:] {
				if t.expiry > now {
					live = append(live, t)
				}
			}
			return live
		}
	}
	return ts
}

// originator is what one TC originator has told us: its topology set and
// the duplicate tuples of its recent messages. Every tuple a TC installs
// shares the TC's ANSN and expiry and a fresh TC replaces the whole set,
// so the set is one record: the last hop is the index, dests the
// advertised selectors other than us in the order the TC listed them
// (recompute does not care, see there). No dests means the originator has
// no tuples here, and ansn is then meaningless: a TC is stale only against
// tuples that exist.
type originator struct {
	ansn   uint16
	expiry time.Duration
	dests  []int32 // released when the set expires
	dup    []held  // by sequence number, in arrival order
}

// route is one routing-table entry; hops == 0 means no route.
type route struct {
	next, hops int32
}

// OLSR is one node's protocol instance.
type OLSR struct {
	node *routing.Node
	cfg  Config

	nbrs     []neighbor
	selUntil []time.Duration // MPR-selector tuple expiry per neighbor; 0 = not a selector
	nSel     int             // live selector tuples
	origs    []originator
	routes   []route

	// Scratch reused across calls, so a warm recompute or MPR selection
	// allocates nothing.
	ids     []int32 // recompute's queue; recomputeMPRs' symmetric neighbors
	reached []int32 // recomputeMPRs' per-id coverage counts

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
	o := &OLSR{node: node, cfg: cfg}
	o.queue = newJitterQueue(o)
	return o
}

// grow extends every id-indexed slice to cover id. It may move them, so
// callers grow to the largest id of a message before taking any pointer
// into them.
func (o *OLSR) grow(id routing.NodeID) {
	n := int(id) + 1
	if n <= len(o.nbrs) {
		return
	}
	o.nbrs = append(o.nbrs, make([]neighbor, n-len(o.nbrs))...)
	o.selUntil = append(o.selUntil, make([]time.Duration, n-len(o.selUntil))...)
	o.origs = append(o.origs, make([]originator, n-len(o.origs))...)
	o.routes = append(o.routes, make([]route, n-len(o.routes))...)
	o.reached = append(o.reached, make([]int32, n-len(o.reached))...)
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
	clear(o.nbrs)
	clear(o.selUntil)
	o.nSel = 0
	clear(o.origs)
	clear(o.routes)
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
	for id := range o.nbrs {
		l := &o.nbrs[id]
		if !l.link {
			continue
		}
		code := LinkAsym
		switch {
		case l.symmetric && l.isMPR:
			code = LinkMPR
		case l.symmetric:
			code = LinkSym
		}
		h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: routing.NodeID(id), Code: code})
	}
	o.node.Metrics().CountControlInitiate(metrics.Hello)
	o.queue.push(h)
	o.helloTimer = o.node.Schedule(helloInterval, o.sendHello)
}

func (o *OLSR) sendTC() {
	if o.stopped {
		return
	}
	if o.nSel > 0 {
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
		for id, until := range o.selUntil {
			if until != 0 {
				tc.Selectors = append(tc.Selectors, routing.NodeID(id))
			}
		}
		o.node.Metrics().CountControlInitiate(metrics.TC)
		o.queue.push(tc)
	}
	o.tcTimer = o.node.Schedule(tcInterval, o.sendTC)
}

// sweep is the once-per-second expiry tick.
func (o *OLSR) sweep() {
	if o.stopped {
		return
	}
	o.expire(o.node.Now())
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

// expire removes the links, two-hop tuples, selectors, topology sets and
// duplicate tuples whose holding time has run out.
func (o *OLSR) expire(now time.Duration) {
	for id := range o.nbrs {
		l := &o.nbrs[id]
		if !l.link {
			continue
		}
		if l.expiry <= now {
			*l = neighbor{}
			o.dirty = true
			continue
		}
		if live := dropExpired(l.twoHop, now); len(live) != len(l.twoHop) {
			l.twoHop = live
			o.dirty = true
		}
	}
	for id, until := range o.selUntil {
		if until != 0 && until <= now {
			o.selUntil[id] = 0
			o.nSel--
			o.ansn++
		}
	}
	for id := range o.origs {
		og := &o.origs[id]
		if len(og.dests) > 0 && og.expiry <= now {
			og.dests = nil
			o.dirty = true
		}
		og.dup = dropExpired(og.dup, now)
	}
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (o *OLSR) HandleControl(from routing.NodeID, msg routing.Message) {
	if o.stopped {
		return
	}
	// A received message is read-only and valid only during the call.
	switch m := msg.(type) {
	case *Hello:
		o.handleHello(from, m)
	case *TC:
		o.handleTC(from, m)
	}
}

func (o *OLSR) handleHello(from routing.NodeID, h *Hello) {
	now := o.node.Now()
	me := o.node.ID()

	heardUs := false
	selectedUs := false
	top := from
	for _, n := range h.Neighbors {
		if n.ID == me {
			heardUs = true
			selectedUs = n.Code == LinkMPR
		}
		top = max(top, n.ID)
	}
	o.grow(top)

	l := &o.nbrs[from]
	if !l.link {
		l.link = true
		o.dirty = true
	}
	l.expiry = now + neighborHold
	if heardUs != l.symmetric {
		l.symmetric = heardUs
		o.dirty = true
	}

	if wasSelector := o.selUntil[from] != 0; selectedUs {
		if !wasSelector {
			o.nSel++
			o.ansn++
		}
		o.selUntil[from] = now + neighborHold
	} else if wasSelector {
		o.selUntil[from] = 0
		o.nSel--
		o.ansn++
	}

	// Two-hop neighborhood: symmetric neighbors of a symmetric neighbor.
	// A HELLO lists them ascending, as the set is kept, so one cursor walks
	// both; an entry out of order just sends the cursor back to the start.
	if l.symmetric {
		i := 0
		for _, n := range h.Neighbors {
			if n.ID == me || n.Code == LinkAsym {
				continue
			}
			id := int32(n.ID)
			if i > 0 && l.twoHop[i-1].key >= id {
				i = 0
			}
			for i < len(l.twoHop) && l.twoHop[i].key < id {
				i++
			}
			if i == len(l.twoHop) || l.twoHop[i].key != id {
				l.twoHop = slices.Insert(l.twoHop, i, held{key: id})
				o.dirty = true
			}
			l.twoHop[i].expiry = now + neighborHold
			i++
		}
	}
}

func (o *OLSR) handleTC(from routing.NodeID, tc *TC) {
	me := o.node.ID()
	if tc.Origin == me {
		return
	}
	now := o.node.Now()

	// Only process TCs arriving over a symmetric link (RFC 3626 §9.2).
	if int(from) >= len(o.nbrs) || !o.nbrs[from].symmetric {
		return
	}

	o.grow(tc.Origin)
	og := &o.origs[tc.Origin]

	isDup := false
	for i := range og.dup {
		if og.dup[i].key == int32(tc.Seq) {
			og.dup[i].expiry = now + dupHold
			isDup = true
			break
		}
	}
	if !isDup {
		og.dup = append(og.dup, held{key: int32(tc.Seq), expiry: now + dupHold})
		// Discard stale information per ANSN (RFC 3626 §9.5 step 2): the
		// comparison is against the set this originator last advertised
		// (T_last_addr == originator), never against the counters of other
		// nodes that advertise it as a selector.
		if len(og.dests) == 0 || !seqGreater(og.ansn, tc.ANSN) {
			top := tc.Origin
			for _, sel := range tc.Selectors {
				top = max(top, sel)
			}
			o.grow(top)
			og = &o.origs[tc.Origin]
			og.ansn, og.expiry = tc.ANSN, now+topologyHold
			og.dests = og.dests[:0]
			for _, sel := range tc.Selectors {
				if sel != me {
					og.dests = append(og.dests, int32(sel))
				}
			}
			o.dirty = true
		}
	}

	// MPR forwarding: relay only if the sender selected us as MPR.
	if isDup || tc.TTL <= 1 || o.selUntil[from] == 0 {
		return
	}
	// The incoming tc's Selectors alias the sender's pooled message, which
	// is recycled once its frame completes; the jitter queue outlives that,
	// so the relayed copy must own its selector list.
	fwd := o.tcPool.Get()
	selectors := fwd.Selectors
	*fwd = *tc
	fwd.Selectors = append(selectors[:0], tc.Selectors...)
	fwd.TTL--
	o.queue.push(fwd)
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
	// reached[id] is -1 for a symmetric neighbor, which is never a strict
	// two-hop node; otherwise the number of symmetric neighbors whose live
	// two-hop tuples reach id, zeroed once an MPR covers it.
	reached := o.reached
	clear(reached)
	sym := o.ids[:0] // the symmetric neighbors, ascending
	for n := range o.nbrs {
		l := &o.nbrs[n]
		l.isMPR = false
		if l.symmetric {
			sym = append(sym, int32(n))
			reached[n] = -1
		}
	}
	o.ids = sym[:0]
	uncovered := 0
	for _, n := range sym {
		for _, h := range o.nbrs[n].twoHop {
			if h.expiry > now && reached[h.key] >= 0 {
				if reached[h.key] == 0 {
					uncovered++
				}
				reached[h.key]++
			}
		}
	}
	// Mandatory: sole providers. All of them are found before any covers,
	// because covering zeroes the counts the search reads.
	for _, n := range sym {
		l := &o.nbrs[n]
		for _, h := range l.twoHop {
			if h.expiry > now && reached[h.key] == 1 {
				l.isMPR = true
				break
			}
		}
	}
	cover := func(l *neighbor) {
		for _, h := range l.twoHop {
			if h.expiry > now && reached[h.key] > 0 {
				reached[h.key] = 0
				uncovered--
			}
		}
	}
	for _, n := range sym {
		if l := &o.nbrs[n]; l.isMPR {
			cover(l)
		}
	}
	// Greedy: highest coverage first; the ascending walk breaks ties by
	// lowest ID.
	for uncovered > 0 {
		var best *neighbor
		bestCount := 0
		for _, n := range sym {
			l := &o.nbrs[n]
			if l.isMPR {
				continue
			}
			c := 0
			for _, h := range l.twoHop {
				if h.expiry > now && reached[h.key] > 0 {
					c++
				}
			}
			if c > bestCount {
				best, bestCount = l, c
			}
		}
		if best == nil {
			break
		}
		best.isMPR = true
		cover(best)
	}
}

// --- routing table (shortest path over the partial topology graph) ---

// recompute rebuilds the routing table with a BFS over unit edges:
// symmetric links, two-hop tuples, and TC topology edges.
//
// Equal-cost destinations keep the first hop the BFS reaches first, and
// that must not vary from run to run. Seeding the queue with the
// symmetric neighbors in ascending id order is what fixes it: the nodes
// at each distance then sit in the queue in runs of ascending first hop,
// so a node takes the lowest-id first hop among its shortest paths
// whatever order one node's own edges are walked in, and neither edge list
// needs sorting or merging. TestFlatStateMatchesMapReference checks this
// against a reference that sorts every expansion.
func (o *OLSR) recompute() {
	now := o.node.Now()
	clear(o.routes)
	queue := o.ids[:0]
	for n := range o.nbrs {
		if o.nbrs[n].symmetric {
			o.routes[n] = route{next: int32(n), hops: 1}
			queue = append(queue, int32(n))
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		via := route{next: o.routes[cur].next, hops: o.routes[cur].hops + 1}
		// Two-hop tuples extend one hop past direct neighbors. Neither edge
		// list can name us: handleHello and handleTC leave our id out.
		for _, h := range o.nbrs[cur].twoHop {
			if h.expiry > now && o.routes[h.key].hops == 0 {
				o.routes[h.key] = via
				queue = append(queue, h.key)
			}
		}
		// Topology tuples: lastHop → dest edges from TCs.
		if og := &o.origs[cur]; og.expiry > now {
			for _, to := range og.dests {
				if o.routes[to].hops == 0 {
					o.routes[to] = via
					queue = append(queue, to)
				}
			}
		}
	}
	o.ids = queue[:0]
	o.dirty = false
}

// lookup reads the routing table, recomputing it first if link state
// changed since the last read.
func (o *OLSR) lookup(dst routing.NodeID) (next routing.NodeID, hops int, ok bool) {
	if o.dirty {
		o.recompute()
	}
	if dst < 0 || int(dst) >= len(o.routes) || o.routes[dst].hops == 0 {
		return 0, 0, false
	}
	r := o.routes[dst]
	return routing.NodeID(r.next), int(r.hops), true
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
	next, _, ok := o.lookup(pkt.Dst)
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
	if int(next) < len(o.nbrs) {
		o.nbrs[next] = neighbor{}
	}
	o.dirty = true
	if alt, _, ok := o.lookup(pkt.Dst); ok && alt != next {
		pkt.Retried = true
		o.node.SendData(alt, pkt)
		return
	}
	o.node.DropData(pkt, routing.DropLinkBreak)
}

// --- observability ---

// SnapshotTable implements routing.TableSnapshotter.
func (o *OLSR) SnapshotTable() []routing.RouteEntry {
	return o.AppendTable(nil)
}

// AppendTable implements routing.TableAppender: entries in ascending
// destination order.
func (o *OLSR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	if o.dirty {
		o.recompute()
	}
	for dst, r := range o.routes {
		if r.hops != 0 {
			out = append(out, routing.RouteEntry{
				Dst: routing.NodeID(dst), Next: routing.NodeID(r.next), Metric: int(r.hops), Valid: true,
			})
		}
	}
	return out
}

// RouteTo exposes (next hop, hop count, ok) for tests and examples.
func (o *OLSR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	return o.lookup(dst)
}

// MPRs returns the node's currently selected multipoint relays in
// ascending order (tests).
func (o *OLSR) MPRs() []routing.NodeID {
	var out []routing.NodeID
	for n := range o.nbrs {
		if o.nbrs[n].isMPR {
			out = append(out, routing.NodeID(n))
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

func newJitterQueue(o *OLSR) *jitterQueue {
	return &jitterQueue{o: o}
}

// push enqueues a broadcast message, our own or a relayed flood.
func (q *jitterQueue) push(msg routing.Message) {
	if !q.o.cfg.JitterQueue {
		q.o.node.SendControl(routing.BroadcastID, msg, nil)
		return
	}
	q.queue = append(q.queue, msg)
	q.kick()
}

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
