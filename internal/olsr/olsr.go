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
	"math/bits"
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

// All link state is held in slices indexed by NodeID, sized by grow on
// the first message to routing.Node.NumNodes: every id in this repository
// is a small non-negative integer, a Network numbers its nodes 0..n-1 (a
// test may name a larger id, and grow covers that too). The zero value of
// each record means "no such tuple", so Reset is plain zeroing, less the
// storage a record keeps for reuse. Ids stored inside the records are
// int32 to halve what they occupy.
//
// Sets of ids are bit rows, one bit per id, so recompute and
// recomputeMPRs take 64 ids a word: each neighbor's two-hop keys, each
// originator's topology set, and each HELLO generation (see neighbor).

// neighbor is the link tuple toward one one-hop neighbor and the two-hop
// tuples learned from its HELLOs, which live and die with the link.
//
// The two-hop tuples are kept as generations, one per HELLO that listed
// any: the HELLO's expiry and the bit row of the ids it listed, less ours
// and Asym entries. A key is held while a stored generation lists it, and
// its expiry is the latest such generation's. gens stores them oldest
// first, so their expiries ascend, each as words+1 words: the expiry,
// then the row. A HELLO drops the generations its own row covers, whose
// keys it re-lists with a later expiry, so a neighbor whose neighborhood
// stands still holds one.
type neighbor struct {
	link      bool // a HELLO was heard within neighborHold
	symmetric bool
	isMPR     bool // we selected this neighbor as MPR
	expiry    time.Duration
	gens      []uint64 // kept, emptied, with the link
	// rowDue is the two-hop row's expiry bound (defined at earlier):
	// before it, the row holds exactly the keys of the live generations.
	rowDue time.Duration
}

// dupStride is each originator's share of a node's duplicate-set
// storage, in tuples. An originator sends a TC every tcInterval and a
// tuple is held dupHold, so about seven are live at once: in three
// 100-node, 330 s runs and one 50-node, 650 s run at pause 0, 3 of
// 933,697 appends made a list longer than eight, and none one longer
// than nine. A list that outgrows its share moves to an array of its own.
const dupStride = 8

// minDupShares is the fewest shares a refill of a node's spare duplicate
// storage holds (takeDups).
const minDupShares = 4

// held is a duplicate tuple: the sequence number of a message from its
// originator and the instant the tuple expires.
type held struct {
	key    int32
	expiry time.Duration
}

// An expiry bound is the earliest instant at which something it covers
// may expire, or 0 if nothing can: it is never later than an expiry it
// covers, so a list whose bound has not passed holds no expired tuple.
// earlier lowers bound due to cover a tuple expiring at t.
func earlier(due, t time.Duration) time.Duration {
	if due == 0 || t < due {
		return t
	}
	return due
}

// passed reports whether something bound due covers may have expired.
func passed(due, now time.Duration) bool { return due != 0 && due <= now }

// dropExpired removes, in place, the tuples whose holding time has run
// out, and returns the rest with their expiry bound.
func dropExpired(ts []held, now time.Duration) ([]held, time.Duration) {
	live, due := ts[:0], time.Duration(0)
	for _, t := range ts {
		if t.expiry > now {
			live = append(live, t)
			due = earlier(due, t.expiry)
		}
	}
	return live, due
}

// originator is what one TC originator has told us: its topology set and
// the duplicate tuples of its recent messages. Every tuple a TC installs
// shares the TC's ANSN and expiry and a fresh TC replaces the whole set,
// so the set is one record: the last hop is the index, the destinations
// its row of destRows (the advertised selectors other than us). Without
// topo the originator has no tuples here, and ansn is then meaningless: a
// TC is stale only against tuples that exist.
type originator struct {
	ansn   uint16
	topo   bool // the topology set is not empty
	expiry time.Duration
	dup    []held        // by sequence number, in arrival order (takeDups)
	dupDue time.Duration // expiry bound on dup: the sweep skips it until then
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

	// Duplicate-set storage not yet given out, and the number of
	// originators given a share of it (takeDups).
	dupSpare []held
	nDups    int

	// The bit rows: row id of twoHopRows is neighbor id's two-hop keys,
	// row id of destRows originator id's topology set; each is words long.
	words      int
	twoHopRows []uint64
	destRows   []uint64

	// Scratch reused across calls, so a warm recompute or MPR selection
	// allocates nothing.
	ids     []int32  // recompute's queue; recomputeMPRs' symmetric neighbors
	scratch []uint64 // three rows: recompute's reached set; recomputeMPRs' sets

	dirty      bool
	ansn       uint16
	msgSeq     uint16
	helloTimer sim.Timer
	tcTimer    sim.Timer
	sweeper    sim.Timer
	queue      *jitterQueue

	// The timers' callbacks, bound once in New, so that re-arming a timer
	// allocates no closure.
	helloFn, tcFn, sweepFn func()

	stopped bool

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
	o.helloFn, o.tcFn, o.sweepFn = o.sendHello, o.sendTC, o.sweep
	return o
}

// grow extends every id-indexed slice to cover id and every node of the
// network, so in a network it allocates once, on the first message. It
// may move them, so callers grow to the largest id of a message before
// taking any pointer into them.
func (o *OLSR) grow(id routing.NodeID) {
	if int(id) < len(o.nbrs) {
		return
	}
	n := o.node.NumNodes()
	o.nbrs = routing.Grow(o.nbrs, id, n)
	o.selUntil = routing.Grow(o.selUntil, id, n)
	o.origs = routing.Grow(o.origs, id, n)
	o.routes = routing.Grow(o.routes, id, n)
	n = len(o.nbrs)
	o.ids = make([]int32, 0, n)
	w := (n + 63) / 64
	o.twoHopRows = widen(o.twoHopRows, o.words, w, n)
	o.destRows = widen(o.destRows, o.words, w, n)
	if w != o.words {
		for id := range o.nbrs {
			l := &o.nbrs[id]
			l.gens = widen(l.gens, o.words+1, w+1, len(l.gens)/(o.words+1))
		}
	}
	o.scratch = make([]uint64, 3*w)
	o.words = w
}

// takeDups gives og, at its first TC, its dupStride share of the node's
// duplicate storage, cut from the spare. An empty spare is refilled with
// as many shares as have been given out (at least minDupShares, and no
// more than there are originators still without one), so the storage
// follows the originators a node hears, and hearing n of them allocates
// about log2 n times.
func (o *OLSR) takeDups(og *originator) {
	if len(o.dupSpare) == 0 {
		o.dupSpare = make([]held, min(max(o.nDups, minDupShares), len(o.origs)-o.nDups)*dupStride)
	}
	og.dup = o.dupSpare[:0:dupStride]
	o.dupSpare = o.dupSpare[dupStride:]
	o.nDups++
}

// widen copies rows of old words each into n rows of w words.
func widen(rows []uint64, old, w, n int) []uint64 {
	out := make([]uint64, n*w)
	for r := 0; r*old < len(rows); r++ {
		copy(out[r*w:], rows[r*old:(r+1)*old])
	}
	return out
}

// row returns row id of rows.
func (o *OLSR) row(rows []uint64, id int32) []uint64 {
	i := int(id) * o.words
	return rows[i : i+o.words : i+o.words]
}

func setBit(row []uint64, id int32) { row[id>>6] |= 1 << (id & 63) }

// gen returns generation g of l: its expiry and its row.
func (o *OLSR) gen(l *neighbor, g int) (time.Duration, []uint64) {
	i := g * (o.words + 1)
	return time.Duration(l.gens[i]), l.gens[i+1 : i+1+o.words : i+1+o.words]
}

// refreshRows brings every two-hop row up to now, rebuilding from the
// generations a row one of whose keys may have expired.
func (o *OLSR) refreshRows(now time.Duration) {
	for id := range o.nbrs {
		l := &o.nbrs[id]
		if !passed(l.rowDue, now) {
			continue
		}
		row := o.row(o.twoHopRows, int32(id))
		clear(row)
		l.rowDue = 0
		for g := len(l.gens)/(o.words+1) - 1; g >= 0; g-- {
			expiry, r := o.gen(l, g)
			if expiry <= now {
				break
			}
			or(row, r)
			l.rowDue = expiry
		}
	}
}

// dropLink removes the link tuple toward id and the two-hop tuples under
// it, keeping the generations' storage.
func (o *OLSR) dropLink(id int) {
	o.nbrs[id] = neighbor{gens: o.nbrs[id].gens[:0]}
	clear(o.row(o.twoHopRows, int32(id)))
}

// Start implements routing.Protocol: begins the HELLO/TC emission cycle,
// desynchronized across nodes by a random initial phase.
func (o *OLSR) Start() {
	helloPhase := time.Duration(o.node.RNG().Float64() * float64(helloInterval))
	tcPhase := helloInterval + time.Duration(o.node.RNG().Float64()*float64(tcInterval))
	o.helloTimer = o.node.Schedule(helloPhase, o.helloFn)
	o.tcTimer = o.node.Schedule(tcPhase, o.tcFn)
	o.sweeper = o.node.Schedule(time.Second, o.sweepFn)
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
	for id := range o.nbrs {
		o.dropLink(id)
	}
	clear(o.selUntil)
	o.nSel = 0
	for id := range o.origs {
		o.origs[id] = originator{dup: o.origs[id].dup[:0]}
	}
	clear(o.routes)
	clear(o.destRows)
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
	o.helloTimer = o.node.Schedule(helloInterval, o.helloFn)
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
	o.tcTimer = o.node.Schedule(tcInterval, o.tcFn)
}

// sweep is the once-per-second expiry tick.
func (o *OLSR) sweep() {
	if o.stopped {
		return
	}
	o.expire(o.node.Now())
	o.sweeper = o.node.Schedule(time.Second, o.sweepFn)
}

// expire removes the links, two-hop generations, selectors, topology
// sets and duplicate tuples whose holding time has run out. A duplicate
// list whose expiry bound has not passed is not looked at.
func (o *OLSR) expire(now time.Duration) {
	for id := range o.nbrs {
		l := &o.nbrs[id]
		if !l.link {
			continue
		}
		if l.expiry <= now {
			o.dropLink(id)
			o.dirty = true
			continue
		}
		o.expireGens(l, now)
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
		if og.topo && og.expiry <= now {
			og.topo = false
			clear(o.row(o.destRows, int32(id)))
			o.dirty = true
		}
		if passed(og.dupDue, now) {
			og.dup, og.dupDue = dropExpired(og.dup, now)
		}
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
	if l.symmetric {
		o.addGen(l, int32(from), h, now+neighborHold)
	}
}

// addGen stores the generation of h, a HELLO from neighbor id (l),
// expiring at expiry: the ids h lists, less ours and Asym entries, if
// any. A key no stored generation lists, expired ones not yet swept
// included, is new and makes the table dirty; a stored generation whose
// keys h lists all is superseded and dropped.
func (o *OLSR) addGen(l *neighbor, id int32, h *Hello, expiry time.Duration) {
	w, s, n := o.words, o.words+1, len(l.gens)
	l.gens = slices.Grow(l.gens, s)[:n+s]
	l.gens[n] = uint64(expiry)
	r := l.gens[n+1 : n+s]
	clear(r)
	me := o.node.ID()
	for _, nb := range h.Neighbors {
		if nb.ID != me && nb.Code != LinkAsym {
			setBit(r, int32(nb.ID))
		}
	}
	if !slices.ContainsFunc(r, nonZero) {
		l.gens = l.gens[:n]
		return
	}
	fresh := o.scratch[:w] // r's keys no stored generation lists
	copy(fresh, r)
	kept := 0
	for g := 0; g*s < n; g++ {
		_, old := o.gen(l, g)
		andNot(fresh, old)
		if !subset(old, r) {
			copy(l.gens[kept*s:], l.gens[g*s:(g+1)*s])
			kept++
		}
	}
	if slices.ContainsFunc(fresh, nonZero) {
		o.dirty = true
	}
	l.gens = l.gens[:kept*s+copy(l.gens[kept*s:], l.gens[n:])]
	or(o.row(o.twoHopRows, id), r)
	l.rowDue = earlier(l.rowDue, expiry)
}

// expireGens drops l's expired generations, the oldest ones; the table is
// dirty if a key went with them, one that no remaining generation lists.
func (o *OLSR) expireGens(l *neighbor, now time.Duration) {
	s := o.words + 1
	k := 0 // expired generations
	for k*s < len(l.gens) && time.Duration(l.gens[k*s]) <= now {
		k++
	}
	if k == 0 {
		return
	}
	lost := o.scratch[:o.words]
	clear(lost)
	for g := 0; g*s < len(l.gens); g++ {
		if _, r := o.gen(l, g); g < k {
			or(lost, r)
		} else {
			andNot(lost, r)
		}
	}
	if slices.ContainsFunc(lost, nonZero) {
		o.dirty = true
	}
	l.gens = l.gens[:copy(l.gens, l.gens[k*s:])]
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
	if cap(og.dup) == 0 {
		o.takeDups(og)
	}

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
		og.dupDue = earlier(og.dupDue, now+dupHold)
		// Discard stale information per ANSN (RFC 3626 §9.5 step 2): the
		// comparison is against the set this originator last advertised
		// (T_last_addr == originator), never against the counters of other
		// nodes that advertise it as a selector.
		if !og.topo || !seqGreater(og.ansn, tc.ANSN) {
			top := tc.Origin
			for _, sel := range tc.Selectors {
				top = max(top, sel)
			}
			o.grow(top)
			og = &o.origs[tc.Origin]
			og.ansn, og.expiry, og.topo = tc.ANSN, now+topologyHold, false
			row := o.row(o.destRows, int32(tc.Origin))
			clear(row)
			for _, sel := range tc.Selectors {
				if sel != me {
					setBit(row, int32(sel))
					og.topo = true
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
	w := o.words
	// sym is the symmetric neighbors, never strict two-hop nodes; once and
	// twice the other ids that the live two-hop tuples of at least one and
	// of at least two symmetric neighbors reach.
	sym, once, twice := o.scratch[:w], o.scratch[w:2*w], o.scratch[2*w:]
	clear(o.scratch)
	ids := o.ids[:0] // the symmetric neighbors, ascending
	for n := range o.nbrs {
		l := &o.nbrs[n]
		l.isMPR = false
		if l.symmetric {
			ids = append(ids, int32(n))
			setBit(sym, int32(n))
		}
	}
	o.ids = ids[:0]
	o.refreshRows(now)
	for _, n := range ids {
		for i, r := range o.row(o.twoHopRows, n) {
			r &^= sym[i]
			twice[i] |= once[i] & r
			once[i] |= r
		}
	}
	// Mandatory: sole providers. All of them are found before any covers,
	// because covering shrinks once, which the search reads.
	for _, n := range ids {
		for i, r := range o.row(o.twoHopRows, n) {
			if r&once[i]&^twice[i] != 0 {
				o.nbrs[n].isMPR = true
				break
			}
		}
	}
	uncovered := once // covered ids leave it from here on
	for _, n := range ids {
		if o.nbrs[n].isMPR {
			andNot(uncovered, o.row(o.twoHopRows, n))
		}
	}
	// Greedy: highest coverage first; the ascending walk breaks ties by
	// lowest ID.
	for slices.ContainsFunc(uncovered, nonZero) {
		best, bestCount := int32(-1), 0
		for _, n := range ids {
			if o.nbrs[n].isMPR {
				continue
			}
			c := 0
			for i, r := range o.row(o.twoHopRows, n) {
				c += bits.OnesCount64(r & uncovered[i])
			}
			if c > bestCount {
				best, bestCount = n, c
			}
		}
		if best < 0 {
			break
		}
		o.nbrs[best].isMPR = true
		andNot(uncovered, o.row(o.twoHopRows, best))
	}
}

func nonZero(w uint64) bool { return w != 0 }

func andNot(dst, row []uint64) {
	for i, r := range row {
		dst[i] &^= r
	}
}

func or(dst, row []uint64) {
	for i, r := range row {
		dst[i] |= r
	}
}

// subset reports whether every id of row a is in row b.
func subset(a, b []uint64) bool {
	for i, r := range a {
		if r&^b[i] != 0 {
			return false
		}
	}
	return true
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
// whatever order one node's own edges are walked in. Every node one
// expansion reaches gets the same route, so an expansion takes the
// node's two-hop and topology rows together, less what is reached, a
// word at a time. TestFlatStateMatchesMapReference checks this against a
// reference that sorts every expansion.
func (o *OLSR) recompute() {
	now := o.node.Now()
	clear(o.routes)
	reached := o.scratch[:o.words]
	clear(reached)
	o.refreshRows(now)
	queue := o.ids[:0]
	for n := range o.nbrs {
		if o.nbrs[n].symmetric {
			o.routes[n] = route{next: int32(n), hops: 1}
			queue = append(queue, int32(n))
			setBit(reached, int32(n))
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		via := route{next: o.routes[cur].next, hops: o.routes[cur].hops + 1}
		// Neither row can name us: handleHello and handleTC leave our id out.
		two := o.row(o.twoHopRows, cur)
		dests := o.row(o.destRows, cur)
		live := o.origs[cur].expiry > now
		for i, r := range two {
			if live {
				r |= dests[i]
			}
			r &^= reached[i]
			reached[i] |= r
			for ; r != 0; r &= r - 1 {
				id := int32(i<<6 + bits.TrailingZeros64(r))
				o.routes[id] = via
				queue = append(queue, id)
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
		o.dropLink(int(next))
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
	q.o.node.ScheduleTransient(jitter, popNow, q, 0)
}

// popNow ends a jitter wait; package-level so scheduling it allocates no
// closure.
func popNow(q any, _ uint64) { q.(*jitterQueue).pop() }

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
	// Shift rather than re-slice from the front, so the storage is reused
	// rather than regrown every cap messages.
	msg := q.queue[0]
	q.queue = slices.Delete(q.queue, 0, 1)
	q.o.node.SendControl(routing.BroadcastID, msg, nil)
	q.kick()
}
