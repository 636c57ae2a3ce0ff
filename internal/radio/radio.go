// Package radio models the shared wireless medium.
//
// The propagation model is the symmetric unit disk: a frame transmitted by
// a node is decodable by every node within DefaultRange of it and causes
// interference at every node within DefaultCSRange. Two signals
// overlapping in time at a receiver corrupt each other, as does receiving
// while transmitting. This reproduces the contention behaviour that drives
// the relative protocol performance in the LDR paper without modelling an
// explicit PHY.
//
// The paper's simulations use "the MAC layer with a 275 m transmission
// range" at 2 Mb/s; those are the defaults here.
//
// A frame's receivers are bitsets indexed by node id, so a transmission's
// receptions — and every collision mark, MAC rx and delivery-fault draw
// they cause — are in id order by construction. Each sender keeps its
// receiver sets, and for every other node a horizon: the last instant
// through which the straight pieces both nodes are on (mobility.Piece)
// keep their distance clear of the two ranges. A frame up to the
// sender's earliest horizon copies the sets, a word or two; a later one
// re-decides only the pairs whose horizon has passed, from exact
// positions. A horizon ends no later than either node's leg, so the
// mobility model is asked past a leg's end at the same frame as if every
// node were looked up at every frame, and its streams stand where that
// would leave them. Attach invalidates every sender's sets. A link cut or
// a partition masks the nodes it hides out of a copy, and a hidden pair is
// not decided until the first frame after the heal (see fill); drop, dup
// and delay faults never change who hears a frame, so they keep the sets.
//
// A transmission costs the event queue three events however many nodes
// hear it: the sender's end-of-airtime idle check, one event in which the
// signal starts at every receiver, and one in which it ends at every
// receiver (see Transmit for why that is the same schedule as one start
// and one end event per receiver).
//
// A transmission carries the bitsets of the nodes that sense it and that
// can decode it; the medium keeps the frames in the air, the nodes that
// sense one of them (air), the nodes holding a still-decodable reception
// (clean) and the nodes with an idle waiter.
// A start and an end are word operations on these sets and visit only the
// nodes where something happens. A payload that names its addressee
// (Addressed) ends with a callback there alone: a MAC drops a data frame
// or ACK meant for another node. Under delivery faults every clean
// reception still draws its faults, in id order, but only the addressee's
// copies are handed over or deferred.
package radio

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// The paper's radio: a 275 m transmission range on a 2 Mb/s channel,
// interference out to twice the decodable range.
const (
	DefaultRange   = 275.0            // decodable range, meters
	DefaultCSRange = 550.0            // carrier-sense/interference range, meters
	BitRate        = 2e6              // channel rate, bits per second
	PropDelay      = time.Microsecond // fixed propagation delay
)

// Config is the medium's configuration. It has no fields: every medium is
// the paper's disk.
type Config struct{}

// DefaultConfig is the paper's uniform disk.
func DefaultConfig() Config { return Config{} }

// ReceiverFunc is invoked for every frame successfully decoded at a node.
// Addressing and ACKing are the MAC's concern; the radio delivers any
// uncorrupted frame that arrives within decodable range (an Addressed one
// only at its addressee, with or without delivery faults).
type ReceiverFunc func(from int, payload any)

// Releasable is implemented by payloads whose lifetime is reference
// counted (pooled MAC air frames). The medium takes a reference for every
// transmission somebody hears and for every delivery the fault hook
// defers, and drops it when the transmission's last reception has ended
// (or the deferred delivery fires), so a pooled payload is never recycled
// while the radio can still read it.
// Payloads that do not implement Releasable are managed by the garbage
// collector as before.
type Releasable interface {
	Ref()
	Unref()
}

// ref takes a reference on a refcounted payload; a no-op otherwise.
func ref(payload any) {
	if r, ok := payload.(Releasable); ok {
		r.Ref()
	}
}

// unref drops a reference on a refcounted payload; a no-op otherwise.
func unref(payload any) {
	if r, ok := payload.(Releasable); ok {
		r.Unref()
	}
}

// Addressed is implemented by payloads meant for one node: a clean
// reception of one ends with a callback at its addressee only, and unseen
// elsewhere. Under delivery faults a reception elsewhere still makes its
// fault draws, so the stream is drawn as if every node got the frame, but
// it is neither handed over nor deferred. A negative Addressee means every
// node that decodes the frame.
type Addressed interface {
	Addressee() int
}

// IdleWaiter is the channel-idle callback target: w.ChannelIdle(u) runs
// the next moment the channel at the registered node goes idle. The
// scalar u is carried through untouched (the MAC passes its power-cycle
// epoch), so waiters need no per-wait closure state.
type IdleWaiter interface {
	ChannelIdle(u uint64)
}

// idleWait is one registered channel-idle callback.
type idleWait struct {
	w IdleWaiter
	u uint64
}

// Medium is the shared channel connecting every node's radio.
type Medium struct {
	sim   *sim.Simulator
	model mobility.Model
	nodes []nodeState

	// kept[i] is the last position computed for node i.
	kept []keptPos

	// Each sender's receiver sets (see fill): sets holds per sender
	// words sensed bits then as many decodable bits, and horizon[src*n+i]
	// the last instant through which pair (src, i)'s bits stand, in whole
	// milliseconds rounded down (half the memory of a Duration).
	// senders[src] holds src's earliest horizon and the Attach generation
	// its sets are for. Allocated by the first frame.
	sets    []uint64
	horizon []uint32
	senders []senderSets
	gen     uint64
	// decided counts the pairs decided from positions, for tests.
	decided uint64

	txPool runpool.Pool[transmission]

	// The frames in the air, and one bit per node: air marks a node that
	// senses one of them (the OR of their sensed sets), clean a node
	// holding a reception it can still decode, waiters a node with an idle
	// waiter. While a frame's end walks its nodes it is ending, out of
	// active and air, and has reached every node up to passed.
	active  []*transmission
	air     []uint64
	clean   []uint64
	waiters []uint64
	ending  *transmission
	passed  int

	// Pre-bound event callbacks, so the hot path schedules no closures.
	startFn func(any, uint64)
	endFn   func(any, uint64)
	idleFn  func(any, uint64)

	// flt holds the fault-injection hooks (see fault.go); nil while no
	// fault has ever been installed, which keeps the fault-free hot path
	// to a single pointer test.
	flt *faults

	// Transmissions counts frames put on the air, for diagnostics.
	Transmissions uint64
	// Corrupted counts per-receiver receptions lost to collisions.
	Corrupted uint64
	// FaultStats counts fault-hook activity (zero without faults).
	FaultStats FaultStats
}

// keptPos is a node's position at virtual time at and the piece it is on:
// through end the model draws nothing for the node, and the node is
// within mobility.Margin of the line on from the position at velocity v
// (mobility.Model); end starts at -1, nothing kept yet.
type keptPos struct {
	mobility.Point
	v       mobility.Point
	at, end time.Duration
}

// senderSets is what a sender's sets are good for: through until, for
// Attach generation gen. A sender attaches only after an Attach, so the
// zero value is stale.
type senderSets struct {
	gen   uint64
	until time.Duration
}

type nodeState struct {
	rx      ReceiverFunc
	txUntil time.Duration // end of this node's own transmission

	// onIdle holds one-shot channel-idle waiters; idleSpare is the
	// detached buffer from the previous checkIdle, kept so the two swap
	// roles and neither list ever reallocates in steady state.
	onIdle    []idleWait
	idleSpare []idleWait
}

// transmission is one frame in the air: the pooled record its start and
// end events carry, with one bit per node that senses it and per node that
// can decode it (a subset). The bitsets go back to the pool zeroed and
// stay with the record.
type transmission struct {
	from              int32
	to                int32 // the payload's addressee; -1, every receiver
	payload           any
	sensed, decodable []uint64
}

// New builds a medium over the given mobility model. Positions are sampled
// from the model at transmission start; a frame's receiver set is fixed at
// that instant (frames are microseconds long, far below node motion scale).
func New(s *sim.Simulator, model mobility.Model, _ Config) *Medium {
	n := model.NumNodes()
	m := &Medium{
		sim:     s,
		model:   model,
		nodes:   make([]nodeState, n),
		kept:    make([]keptPos, n),
		air:     make([]uint64, (n+63)/64),
		clean:   make([]uint64, (n+63)/64),
		waiters: make([]uint64, (n+63)/64),
	}
	for i := 0; i < n; i++ {
		m.kept[i].at, m.kept[i].end = -1, -1
	}
	m.startFn = m.startAll
	m.endFn = m.endAll
	m.idleFn = m.idleAt
	return m
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return Config{} }

// Model exposes the mobility model driving node positions, for analysis
// tools.
func (m *Medium) Model() mobility.Model { return m.model }

// Attach registers the frame-delivery callback for a node. It
// invalidates every sender's sets: who is attached is part of each.
func (m *Medium) Attach(id int, rx ReceiverFunc) {
	m.nodes[id].rx = rx
	m.gen++
}

// position returns node id's position at the current instant, computing
// it at most once per instant, and keeps it with the piece it is on. A
// node on a still piece is where it was kept through the piece's end
// (mobility.Model), so it is not looked up again.
func (m *Medium) position(id int) mobility.Point {
	k, now := &m.kept[id], m.sim.Now()
	if k.at != now && k.v == (mobility.Point{}) && now <= k.end {
		k.at = now
	}
	if k.at != now {
		p := m.model.Position(id, now)
		piece := m.model.Piece(id, now)
		*k = keptPos{p, piece.V, now, piece.End}
	}
	return k.Point
}

// Busy reports whether node id currently senses the channel busy (a signal
// in the air within carrier-sense range, or its own transmission).
func (m *Medium) Busy(id int) bool {
	if m.nodes[id].txUntil > m.sim.Now() {
		return true
	}
	// A frame in the air senses the node, or the frame whose end is being
	// walked does where the walk has not yet been.
	w, b := id>>6, uint64(1)<<(id&63)
	return m.air[w]&b != 0 || m.ending != nil && id > m.passed && m.ending.sensed[w]&b != 0
}

// NotifyIdle registers a one-shot waiter invoked (as w.ChannelIdle(u))
// the next moment node id's channel becomes idle. If the channel is
// already idle the callback runs in a zero-delay event.
func (m *Medium) NotifyIdle(id int, w IdleWaiter, u uint64) {
	if !m.Busy(id) {
		m.sim.ScheduleTransient(0, idleNowFn, w, u)
		return
	}
	st := &m.nodes[id]
	st.onIdle = append(st.onIdle, idleWait{w: w, u: u})
	m.waiters[id>>6] |= 1 << (id & 63)
}

// idleNowFn fires an already-idle NotifyIdle registration; package-level
// so scheduling it allocates no closure.
func idleNowFn(arg any, u uint64) { arg.(IdleWaiter).ChannelIdle(u) }

// idleAt is the pre-bound transient callback for the sender's own
// end-of-transmission idle check; the node index travels in u unboxed.
func (m *Medium) idleAt(_ any, u uint64) { m.checkIdle(int(u)) }

// AirTime returns how long a frame of the given size occupies the channel.
func (m *Medium) AirTime(bits int) time.Duration {
	return time.Duration(float64(bits) / BitRate * float64(time.Second))
}

// Transmit puts a frame on the air from node src and returns its airtime.
// The MAC is responsible for carrier sensing before calling Transmit; the
// radio faithfully transmits (and collides) regardless.
//
// How a node hears the frame — not at all, sensed only, decodable — is
// what comparing its exact distance from src with the two ranges says.
// The sender's sets answer that (see fill): each pair's answer stands
// through its horizon, and only pairs past theirs are measured again. A link cut or a partition hides nodes from the copy; delivery
// faults act after the sets are found, so they keep them.
//
// The whole receiver set rides on two events: one at now+PropDelay that
// starts the signal at every receiver in ascending id, one at
// now+PropDelay+air that ends it at every receiver in the same order.
// That is the schedule one start and one end event per receiver would
// produce, not an approximation of it. Such events would all be created
// inside this call, so they would hold a contiguous block of sequence
// numbers and sit at the same two instants; no other event can sort
// between two members of the block, and anything a callback schedules
// while the block runs gets a later sequence number and so fires after
// all of it. Every MAC rx, idle waiter, collision mark and delivery-fault
// draw therefore happens at the same virtual time in the same order
// (pinned by TestBatchedDeliveryMatchesPerReceiverEvents). The two things
// that do differ: sim.Interrupt takes effect between transmissions, not
// between receivers, and a zero-airtime frame starts everywhere before it
// ends anywhere, where per-receiver events would alternate — no caller
// transmits zero bits.
func (m *Medium) Transmit(src, bits int, payload any) time.Duration {
	now := m.sim.Now()
	air := m.AirTime(bits)
	m.Transmissions++

	m.nodes[src].txUntil = now + air
	// Receiving while transmitting corrupts anything arriving here.
	if w, b := src>>6, uint64(1)<<(src&63); m.clean[w]&b != 0 {
		m.clean[w] &^= b
		m.Corrupted++
	}
	m.sim.ScheduleTransient(air, m.idleFn, nil, uint64(src))

	tx := m.txPool.Get()
	if tx.sensed == nil {
		tx.sensed, tx.decodable = make([]uint64, len(m.clean)), make([]uint64, len(m.clean))
	}
	m.fill(src, tx)
	var heard uint64
	for _, w := range tx.sensed {
		heard |= w
	}
	if heard == 0 {
		m.txPool.Put(tx)
		return air
	}
	tx.from, tx.to = int32(src), -1
	if a, ok := payload.(Addressed); ok {
		tx.to = int32(max(a.Addressee(), -1))
	}
	tx.payload = payload
	ref(payload) // the receptions read the payload until they end
	m.sim.ScheduleTransient(PropDelay, m.startFn, tx, 0)
	m.sim.ScheduleTransient(PropDelay+air, m.endFn, tx, 0)
	return air
}

// guard is how far a pair's distance along the two nodes' lines must stay
// from a range for the pair's answer to stand: mobility.Margin for each
// node's promise, and one more for the arithmetic of the horizon.
const guard = 3 * mobility.Margin

// far is a horizon's farthest reach, in nanoseconds (31 years), so that
// the instant fits a Duration; no run gets there.
const far = 1e18

// fill sets tx's bits from src's receiver sets, first re-deciding the
// pairs whose horizon has passed, every pair after an Attach, and leaves
// out the nodes a link cut or the partition hides from src. Until its
// earliest horizon a sender's frame is a copy.
func (m *Medium) fill(src int, tx *transmission) {
	n, words := len(m.nodes), len(m.clean)
	if m.senders == nil {
		m.sets = make([]uint64, 2*words*n)
		m.horizon = make([]uint32, n*n)
		m.senders = make([]senderSets, n)
	}
	hid := m.hidden(src)
	sets := m.sets[2*words*src : 2*words*(src+1)]
	if st := &m.senders[src]; st.gen != m.gen || m.sim.Now() > st.until {
		m.refresh(src, sets, hid)
	}
	copy(tx.sensed, sets[:words])
	copy(tx.decodable, sets[words:])
	for w, h := range hid {
		tx.sensed[w] &^= h
		tx.decodable[w] &^= h
	}
}

// refresh decides every attached pair (src, i) whose horizon has passed,
// every one after an Attach, from both nodes' exact positions, as looking
// every node up at every frame would, and gives it a new horizon; then
// src's sets stand through the earliest of its horizons and its own
// piece's end. A pair whose node is in hid is neither looked up nor
// decided, as looking up every node that can hear the frame would not
// look it up either: its horizon is left passed (after an Attach, 0,
// passed for every frame after time 0), so the first frame after the
// heal decides it.
func (m *Medium) refresh(src int, sets, hid []uint64) {
	now, n, words := m.sim.Now(), len(m.nodes), len(m.clean)
	st, h := &m.senders[src], m.horizon[n*src:n*(src+1)]
	all := st.gen != m.gen
	if all {
		clear(sets)
		st.gen = m.gen
	}
	p, ks := m.position(src), &m.kept[src]
	until := ks.end
	for i := range m.nodes {
		if i == src || m.nodes[i].rx == nil {
			continue
		}
		w, b := i>>6, uint64(1)<<(i&63)
		switch {
		case hid != nil && hid[w]&b != 0:
			if all {
				h[i] = 0
			}
		case all || time.Duration(h[i])*time.Millisecond < now:
			m.decided++
			d := p.Dist(m.position(i))
			sets[w] = sets[w]&^b | bit(d <= DefaultCSRange)<<(i&63)
			sets[words+w] = sets[words+w]&^b | bit(d <= DefaultRange)<<(i&63)
			h[i] = uint32(min(horizonOf(ks, &m.kept[i], d)/time.Millisecond, math.MaxUint32))
		}
		until = min(until, time.Duration(h[i])*time.Millisecond)
	}
	st.until = until
}

// horizonOf returns the last instant through which a sender kept as s and
// a receiver kept as r, both now and d apart, stay on the sides of the
// two ranges they are on: their distance along their pieces' lines keeps
// more than guard from both, until the earlier piece ends.
func horizonOf(s, r *keptPos, d float64) time.Duration {
	now, end := s.at, min(s.end, r.end)
	if min(math.Abs(d-DefaultRange), math.Abs(d-DefaultCSRange)) <= guard {
		return now
	}
	dx, dy, vx, vy := r.X-s.X, r.Y-s.Y, r.v.X-s.v.X, r.v.Y-s.v.Y
	a, b, c := vx*vx+vy*vy, dx*vx+dy*vy, dx*dx+dy*dy
	tau := min(reach(a, b, c, d, DefaultRange), reach(a, b, c, d, DefaultCSRange)) // seconds
	if dt := tau * 1e9; dt > 0 {
		return min(end, now+time.Duration(min(dt, far)))
	}
	return now
}

// reach returns the first τ ≥ 0, in seconds, at which |Δp + Δv·τ| comes
// within guard of r, +Inf if it never does, given a = |Δv|², b = Δp·Δv,
// c = |Δp|² and d = |Δp| more than guard from r. The distance is a convex
// function of τ: from outside r it must fall to r + guard, the smaller
// root, and from inside rise to r - guard, the larger; each root is taken
// in the form that subtracts nothing close to it.
func reach(a, b, c, d, r float64) float64 {
	if d > r {
		q := c - (r+guard)*(r+guard)
		disc := b*b - a*q
		if b >= 0 || disc < 0 {
			return math.Inf(1)
		}
		return q / (math.Sqrt(disc) - b)
	}
	q := (r-guard)*(r-guard) - c
	disc := b*b + a*q
	if b >= 0 {
		return q / (b + math.Sqrt(disc))
	}
	return (math.Sqrt(disc) - b) / a
}

// bit is 1 for true, without a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// startAll is the pre-bound transient callback for a transmission's
// signal reaching its receivers. Where another frame in the air is sensed
// too, both are lost: the clean reception there, if any, and this frame
// if it is decodable. Elsewhere this frame becomes the node's clean
// reception, unless the node is transmitting.
func (m *Medium) startAll(arg any, _ uint64) {
	tx := arg.(*transmission)
	now := m.sim.Now()
	for w, sensed := range tx.sensed {
		if sensed == 0 {
			continue
		}
		others := m.air[w]
		m.air[w] |= sensed
		m.Corrupted += uint64(bits.OnesCount64(m.clean[w]&sensed) + bits.OnesCount64(tx.decodable[w]&others))
		m.clean[w] &^= sensed
		for alone := tx.decodable[w] &^ others; alone != 0; alone &= alone - 1 {
			if m.nodes[w<<6|bits.TrailingZeros64(alone)].txUntil > now {
				m.Corrupted++
			} else {
				m.clean[w] |= alone & -alone
			}
		}
	}
	m.active = append(m.active, tx)
}

// endAll is the pre-bound transient callback for a transmission's signal
// ending at its receivers: in ascending id, each node the end has
// something to do at (nextEnd) gets its reception, then its idle check,
// as one end event per receiver would have it. Under delivery faults a
// reception of an Addressed frame at another node is foreign: it makes
// its draws and is handed to nobody. The frame leaves the air first, but
// counts as sensed (Busy) where the end has not been yet.
func (m *Medium) endAll(arg any, _ uint64) {
	tx := arg.(*transmission)
	m.leave(tx)
	for j, clean := m.nextEnd(tx); j >= 0; j, clean = m.nextEnd(tx) {
		if clean && m.nodes[j].rx != nil {
			if f := m.flt; f != nil && f.src != nil {
				m.deliverFaulty(f, int(tx.from), j, tx.payload, tx.to >= 0 && j != int(tx.to))
			} else {
				m.nodes[j].rx(int(tx.from), tx.payload)
			}
		}
		m.checkIdle(j)
	}
	m.retire(tx)
}

// leave takes tx out of the air as its end starts its walk: out of
// active, and out of air, whose words tx was sensed in are rebuilt from
// the frames that remain.
func (m *Medium) leave(tx *transmission) {
	i, last := slices.Index(m.active, tx), len(m.active)-1
	m.active[i], m.active[last] = m.active[last], nil
	m.active = m.active[:last]
	for w, sensed := range tx.sensed {
		if sensed == 0 {
			continue
		}
		var air uint64
		for _, o := range m.active {
			air |= o.sensed[w]
		}
		m.air[w] = air
	}
	m.ending, m.passed = tx, -1
}

// nextEnd moves tx's end past m.passed to the next node it has something
// to do at, and reports whether that node holds a clean reception of tx.
// Those are the nodes holding one — only its addressee, if it has one and
// no delivery faults are installed; with them every one, since each draws
// its faults (endAll hands a foreign one to nobody) — and the nodes
// sensing it that have an idle waiter; both sets are read afresh on every
// call, because a callback may transmit or register a waiter. Every clean
// reception of tx the end reaches on the way, the next node's included,
// ends there.
func (m *Medium) nextEnd(tx *transmission) (int, bool) {
	to := int(tx.to)
	if f := m.flt; f != nil && f.src != nil {
		to = -1 // every clean reception draws its delivery faults
	}
	from := m.passed + 1
	for w := from >> 6; w < len(tx.sensed); w++ {
		ahead := ^uint64(0)
		if w == from>>6 {
			ahead <<= from & 63
		}
		give := tx.decodable[w] & m.clean[w]
		if to >= 0 {
			give &= bit(to>>6 == w) << (to & 63)
		}
		if hit := (give | tx.sensed[w]&m.waiters[w]) & ahead; hit != 0 {
			j := w<<6 | bits.TrailingZeros64(hit)
			m.clean[w] &^= tx.decodable[w] & ahead & (2<<(j&63) - 1)
			m.passed = j
			return j, give>>(j&63)&1 != 0
		}
		m.clean[w] &^= tx.decodable[w] & ahead
	}
	m.passed = len(m.nodes)
	return -1, false
}

// retire ends tx's walk, drops the payload reference and recycles the
// record.
func (m *Medium) retire(tx *transmission) {
	m.ending = nil
	unref(tx.payload)
	tx.payload = nil
	for w := range tx.sensed {
		tx.sensed[w], tx.decodable[w] = 0, 0
	}
	m.txPool.Put(tx)
}

func (m *Medium) checkIdle(id int) {
	st := &m.nodes[id]
	if len(st.onIdle) == 0 || m.Busy(id) {
		return
	}
	m.waiters[id>>6] &^= 1 << (id & 63)
	// Detach before invoking — a waiter may re-register during the loop —
	// and keep the detached buffer as the next registration list, so the
	// two buffers alternate and neither ever reallocates once warm.
	cbs := st.onIdle
	st.onIdle = st.idleSpare[:0]
	for i, w := range cbs {
		cbs[i] = idleWait{}
		w.w.ChannelIdle(w.u)
	}
	st.idleSpare = cbs[:0]
}

// NeighborsAppend appends the nodes id currently shares a usable link
// with to out (in ascending id order) and returns the extended slice,
// allowing callers that poll connectivity (ldrsim's connectivity header
// walks the whole graph) to reuse one buffer across calls instead of
// allocating per query.
func (m *Medium) NeighborsAppend(id int, out []int) []int {
	p := m.position(id)
	for i := range m.nodes {
		if i == id {
			continue
		}
		if p.Dist(m.position(i)) <= DefaultRange {
			out = append(out, i)
		}
	}
	return out
}
