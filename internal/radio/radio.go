// Package radio models the shared wireless medium.
//
// The propagation model is a per-transmitter disk: a frame transmitted by
// a node is decodable by every node within the *transmitter's* decodable
// range and causes interference at every node within the transmitter's
// carrier-sense range. With one class (the default) this is the classic
// symmetric unit disk; with several (Config.Classes) links become
// directional — a long-range node's frames reach a short-range node that
// can never answer. Two signals overlapping
// in time at a receiver corrupt each other, as does receiving while
// transmitting. This reproduces the contention behaviour that drives the
// relative protocol performance in the LDR paper without modelling an
// explicit PHY.
//
// The paper's simulations use "the MAC layer with a 275 m transmission
// range" at 2 Mb/s; those are the defaults here.
//
// Receiver lookup is one exact scan over the nodes in ascending id, so a
// transmission's receptions — and every collision mark, MAC rx and
// delivery-fault draw they cause — are in id order by construction. The
// scan keeps each node's last computed position and asks the mobility
// model again only when the motion since could change how the node hears
// the frame, or when the node's leg has ended (see Transmit); the receiver
// set is the one asking for every position at every frame gives. The scan
// is O(N) per frame; every experiment in this repository runs at most 100
// nodes (EXPERIMENTS.md records where a spatial index would start to pay).
// While the network rests it is not even that: mobility.Model.StillFrom
// names a span through which no node moves, and inside it a sender's
// frames after its first copy the sets that one scanned — a word or two
// instead of a visit per node. Static networks, and the paper's long
// pauses, rest for most of a run. Attach ends such a span, and a medium
// with faults installed scans every frame.
//
// A transmission costs the event queue three events however many nodes
// hear it: the sender's end-of-airtime idle check, one event in which the
// signal starts at every receiver, and one in which it ends at every
// receiver (see Transmit for why that is the same schedule as one start
// and one end event per receiver).
//
// A transmission carries the bitsets of the nodes that sense it and that
// can decode it; the medium keeps the frames in the air, the nodes holding
// a still-decodable reception (clean) and the nodes with an idle waiter.
// A start and an end are word operations on these sets and visit only the
// nodes where something happens. A payload that names its addressee
// (Addressed) ends with a callback there alone while no delivery faults
// are installed: a MAC drops a data frame or ACK meant for another node.
package radio

import (
	"math/bits"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// Class is one transmit-power class: the decodable and carrier-sense
// ranges governing every frame sent by a node assigned to it. Reception
// is decided by the transmitter's class alone — a weak node still hears
// a strong one from far away — which is what makes mixed classes produce
// genuinely one-way links.
type Class struct {
	Range   float64 // decodable range, meters
	CSRange float64 // carrier-sense/interference range, meters
}

// The paper's radio: a 275 m transmission range on a 2 Mb/s channel,
// interference out to twice the decodable range.
const (
	DefaultRange   = 275.0            // decodable range, meters
	DefaultCSRange = 550.0            // carrier-sense/interference range, meters
	BitRate        = 2e6              // channel rate, bits per second
	PropDelay      = time.Microsecond // fixed propagation delay
)

// Config is what a scenario varies about the medium.
type Config struct {
	// Classes assigns transmit power: node i sends with
	// Classes[i % len(Classes)]. The assignment is a pure function of the
	// node id, so it draws no randomness and cannot perturb any seeded
	// stream. Empty is the one class {DefaultRange, DefaultCSRange} — the
	// paper's uniform disk.
	Classes []Class
}

// DefaultConfig is the paper's uniform disk.
func DefaultConfig() Config { return Config{} }

// ReceiverFunc is invoked for every frame successfully decoded at a node.
// Addressing and ACKing are the MAC's concern; the radio delivers any
// uncorrupted frame that arrives within decodable range (an Addressed one
// only at its addressee, while no delivery faults are installed).
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

// Addressed is implemented by payloads meant for one node: while no
// delivery faults are installed, a clean reception of one ends with a
// callback at its addressee only, and unseen elsewhere. A negative
// Addressee means every node that decodes the frame.
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
	cfg   Config
	nodes []nodeState

	// Per-node transmit ranges, resolved once from cfg.Classes, so the hot
	// path indexes a slice instead of re-deriving class membership per
	// frame.
	txRange []float64
	csRange []float64

	// kept[i] is the last position computed for node i; bound is
	// model.SpeedBound().
	kept  []keptPos
	bound float64

	txPool runpool.Pool[transmission]

	// The frames in the air, and one bit per node: clean marks a node
	// holding a reception it can still decode, waiters a node with an idle
	// waiter. While a frame's end walks its nodes it is ending, out of
	// active, and has reached every node up to passed.
	active  []*transmission
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

	// A rest epoch is a span [restFrom, restTo] through which no attached
	// node moves. Inside the current one, number epoch, a sender's receiver
	// sets are those its first frame scanned: rest holds them, words
	// sensed bits then as many decodable bits per sender, and restTag[src]
	// is the epoch they were scanned in (0, none). restTo < now means the
	// epoch is over and the next frame looks again (see rests).
	restFrom, restTo time.Duration
	epoch            uint64
	rest             []uint64
	restTag          []uint64
	// scans counts receiver scans, for tests.
	scans uint64

	// Transmissions counts frames put on the air, for diagnostics.
	Transmissions uint64
	// Corrupted counts per-receiver receptions lost to collisions.
	Corrupted uint64
	// FaultStats counts fault-hook activity (zero without faults).
	FaultStats FaultStats
}

// keptPos is a node's position at virtual time at. Through legEnd the
// model promises the node is within mobility.Slack(bound, now-at) of it
// (mobility.Model); legEnd starts at -1, nothing kept yet.
type keptPos struct {
	mobility.Point
	at, legEnd time.Duration
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
func New(s *sim.Simulator, model mobility.Model, cfg Config) *Medium {
	// A private copy (the caller's slice stays untouched) with the default
	// class filled in and carrier sense reaching at least as far as decoding.
	cfg.Classes = append([]Class(nil), cfg.Classes...)
	if len(cfg.Classes) == 0 {
		cfg.Classes = []Class{{Range: DefaultRange, CSRange: DefaultCSRange}}
	}
	for i := range cfg.Classes {
		if cfg.Classes[i].CSRange < cfg.Classes[i].Range {
			cfg.Classes[i].CSRange = cfg.Classes[i].Range
		}
	}
	n := model.NumNodes()
	m := &Medium{
		sim:     s,
		model:   model,
		cfg:     cfg,
		nodes:   make([]nodeState, n),
		txRange: make([]float64, n),
		csRange: make([]float64, n),
		kept:    make([]keptPos, n),
		bound:   model.SpeedBound(),
		clean:   make([]uint64, (n+63)/64),
		waiters: make([]uint64, (n+63)/64),
	}
	for i := 0; i < n; i++ {
		cl := cfg.Classes[i%len(cfg.Classes)]
		m.txRange[i], m.csRange[i] = cl.Range, cl.CSRange
		m.kept[i].at, m.kept[i].legEnd = -1, -1
	}
	m.restTo = -1
	m.startFn = m.startAll
	m.endFn = m.endAll
	m.idleFn = m.idleAt
	return m
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return m.cfg }

// Model exposes the mobility model driving node positions, for analysis
// tools.
func (m *Medium) Model() mobility.Model { return m.model }

// Attach registers the frame-delivery callback for a node. It ends the
// rest epoch: who is attached is part of every receiver set.
func (m *Medium) Attach(id int, rx ReceiverFunc) {
	m.nodes[id].rx = rx
	m.restTo = -1
}

// position returns node id's position at the current instant, computing
// it at most once per instant, and keeps it.
func (m *Medium) position(id int) mobility.Point {
	k, now := &m.kept[id], m.sim.Now()
	if k.at != now {
		*k = keptPos{m.model.Position(id, now), now, m.model.LegEnd(id)}
	}
	return k.Point
}

// Busy reports whether node id currently senses the channel busy (a signal
// in the air within carrier-sense range, or its own transmission).
func (m *Medium) Busy(id int) bool {
	if m.nodes[id].txUntil > m.sim.Now() {
		return true
	}
	w, b := id>>6, uint64(1)<<(id&63)
	for _, tx := range m.active {
		if tx.sensed[w]&b != 0 {
			return true
		}
	}
	// The frame whose end is being walked is still in the air where the
	// walk has not yet been.
	return m.ending != nil && id > m.passed && m.ending.sensed[w]&b != 0
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
// what comparing its exact distance from src with the sender's two ranges
// says. Most nodes are decided from the position kept for them: the node is
// within slack of it (mobility.Slack), so when the kept distance is more
// than slack away from both ranges it falls on the same side of both as
// the exact one, and comparing squares gives the answer without a root.
// Only a node that could be on the other side of a range, or whose leg has
// ended, is looked up and measured — which also keeps the mobility streams
// where looking every node up would leave them, since a model draws only
// past a leg's end. A model with no speed bound has infinite slack and
// every node is measured.
//
// While no node moves (a rest epoch, see rests) and no fault has been
// installed, a sender's frames reuse the sets its first frame in the
// epoch found, which are the sets a scan would find again.
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
// that do differ: sim.Halt and sim.Interrupt take effect between
// transmissions, not between receivers, and a zero-airtime frame starts
// everywhere before it ends anywhere, where per-receiver events would
// alternate — no caller transmits zero bits.
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
	if m.flt == nil && m.nodes[src].rx != nil && m.rests(now) {
		m.restSets(src, tx)
	} else {
		m.scan(src, tx)
	}
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

// scan sets tx's bits for every node that senses and that can decode a
// frame src sends now (see Transmit).
func (m *Medium) scan(src int, tx *transmission) {
	m.scans++
	now := m.sim.Now()
	srcPos := m.position(src)
	txR, csR := m.txRange[src], m.csRange[src]
	tx2, cs2 := txR*txR, csR*csR
	for i := range m.nodes {
		if i == src || m.nodes[i].rx == nil {
			continue
		}
		if m.flt != nil && m.blocked(src, i) {
			m.FaultStats.Blocked++
			continue
		}
		k := &m.kept[i]
		dx, dy := srcPos.X-k.X, srcPos.Y-k.Y
		d2 := dx*dx + dy*dy
		sensed, decodable := d2 <= cs2, d2 <= tx2
		// The kept distance is within slack of a range r when
		// (r-slack)² ≤ d2 ≤ (r+slack)², which for slack ≤ r is
		// (d2 - r² - slack²)² ≤ 4·r²·slack².
		slack := mobility.Slack(m.bound, now-k.at)
		s2 := slack * slack
		if t, c := d2-s2-tx2, d2-s2-cs2; now > k.legEnd || slack > txR ||
			t*t <= 4*tx2*s2 || c*c <= 4*cs2*s2 {
			d := srcPos.Dist(m.position(i))
			sensed, decodable = d <= csR, d <= txR
		}
		// Both bits are written whether or not the node hears the frame:
		// whether it does is a coin toss no branch predictor wins.
		tx.sensed[i>>6] |= bit(sensed) << (i & 63)
		tx.decodable[i>>6] |= bit(decodable) << (i & 63)
	}
}

// rests reports whether now is inside a rest epoch, looking for the next
// one past the end of the last.
func (m *Medium) rests(now time.Duration) bool {
	if now > m.restTo {
		m.nextRest()
	}
	return now >= m.restFrom && now <= m.restTo
}

// nextRest asks for every attached node once: all of them sit still from
// the latest StillFrom through the earliest LegEnd, and when that span is
// not empty it is the next rest epoch. Either way nothing is looked at
// again before that LegEnd, since no node's leg can change sooner.
func (m *Medium) nextRest() {
	from, to := time.Duration(0), mobility.Forever
	for i := range m.nodes {
		if m.nodes[i].rx == nil {
			continue
		}
		m.position(i)
		from, to = max(from, m.model.StillFrom(i)), min(to, m.kept[i].legEnd)
	}
	m.restFrom, m.restTo = from, to
	if from <= to {
		m.epoch++
		if m.rest == nil {
			m.rest, m.restTag = make([]uint64, 2*len(m.clean)*len(m.nodes)), make([]uint64, len(m.nodes))
		}
	}
}

// restSets sets tx's bits from src's receiver sets of this rest epoch,
// scanning for them on src's first frame in it. No position changes in an
// epoch, so they are the sets the scan would find.
func (m *Medium) restSets(src int, tx *transmission) {
	words := len(m.clean)
	sets := m.rest[2*words*src : 2*words*(src+1)]
	if m.restTag[src] == m.epoch {
		copy(tx.sensed, sets[:words])
		copy(tx.decodable, sets[words:])
		return
	}
	m.scan(src, tx)
	copy(sets, tx.sensed)
	copy(sets[words:], tx.decodable)
	m.restTag[src] = m.epoch
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
		var others uint64
		for _, o := range m.active {
			others |= o.sensed[w]
		}
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
// as one end event per receiver would have it. The frame leaves the air
// first, but counts as sensed (Busy) where the end has not been yet.
func (m *Medium) endAll(arg any, _ uint64) {
	tx := arg.(*transmission)
	i, last := slices.Index(m.active, tx), len(m.active)-1
	m.active[i], m.active[last] = m.active[last], nil
	m.active = m.active[:last]
	m.ending, m.passed = tx, -1
	for j, clean := m.nextEnd(tx); j >= 0; j, clean = m.nextEnd(tx) {
		if clean && m.nodes[j].rx != nil {
			if f := m.flt; f != nil && f.src != nil {
				m.deliverFaulty(f, int(tx.from), j, tx.payload)
			} else {
				m.nodes[j].rx(int(tx.from), tx.payload)
			}
		}
		m.checkIdle(j)
	}
	m.retire(tx)
}

// nextEnd moves tx's end past m.passed to the next node it has something
// to do at, and reports whether that node gets the frame. Those are the
// nodes holding a clean reception of tx — only its addressee, if it has
// one and no delivery faults are installed — and the nodes sensing it
// that have an idle waiter; both sets are read afresh on every call,
// because a callback may transmit or register a waiter. Every clean
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

// TxRange returns node id's decodable transmit range in meters.
func (m *Medium) TxRange(id int) float64 { return m.txRange[id] }

// InRangeFrom reports whether dst can currently decode src's
// transmissions. The predicate is directional: with mixed transmit-power
// classes InRangeFrom(a, b) says nothing about InRangeFrom(b, a).
func (m *Medium) InRangeFrom(src, dst int) bool {
	return m.position(src).Dist(m.position(dst)) <= m.txRange[src]
}

// InRange reports whether two nodes can currently decode each other — a
// usable link, since unicast data needs the return direction for the MAC
// ACK. With uniform ranges this is the classic symmetric disk predicate.
func (m *Medium) InRange(a, b int) bool {
	d := m.position(a).Dist(m.position(b))
	return d <= m.txRange[a] && d <= m.txRange[b]
}

// ReachableFrom returns the nodes that can currently decode id's
// transmissions (id's out-neighbors), in ascending id order. With
// heterogeneous classes this is NOT the set id can hear from.
func (m *Medium) ReachableFrom(id int) []int {
	return m.ReachableFromAppend(id, nil)
}

// ReachableFromAppend appends id's out-neighbors to out (in ascending id
// order) and returns the extended slice.
func (m *Medium) ReachableFromAppend(id int, out []int) []int {
	p := m.position(id)
	for i := range m.nodes {
		if i == id {
			continue
		}
		if p.Dist(m.position(i)) <= m.txRange[id] {
			out = append(out, i)
		}
	}
	return out
}

// Neighbors returns the nodes id currently shares a usable (mutually
// decodable) link with, in ascending id order. It is an observability
// helper for analysis tools, not a protocol input.
func (m *Medium) Neighbors(id int) []int {
	return m.NeighborsAppend(id, nil)
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
		if d := p.Dist(m.position(i)); d <= m.txRange[id] && d <= m.txRange[i] {
			out = append(out, i)
		}
	}
	return out
}
