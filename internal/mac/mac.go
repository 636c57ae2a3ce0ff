// Package mac implements a simplified IEEE 802.11 DCF medium access layer.
//
// The model captures the DCF mechanisms that matter to routing-protocol
// comparisons: carrier sensing with DIFS deferral, slotted binary
// exponential backoff, unreliable broadcast (single attempt, no ACK), and
// reliable unicast (SIFS-spaced ACK, up to RetryLimit retransmissions).
// Exhausting retransmissions triggers the failure callback, which the
// routing protocols use as link-layer failure detection — exactly how
// AODV, DSR, and LDR detect broken links in the paper's simulations.
//
// The steady-state transmit path allocates nothing: air frames are drawn
// from a per-MAC free list and reference counted across their receptions
// (radio.Releasable), every scheduled continuation is a package-level
// function fed through sim.ScheduleTransient with the MAC pointer and the
// power-cycle epoch as arguments, and completion callbacks dispatch
// through the FrameHandler interface instead of per-frame closures.
package mac

import (
	"time"

	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// BroadcastAddr is the link-layer broadcast address.
const BroadcastAddr = -1

// 802.11 DCF parameters for a 2 Mb/s DSSS PHY — the paper's one MAC.
const (
	SlotTime    = 20 * time.Microsecond // backoff slot
	DIFS        = 50 * time.Microsecond // distributed inter-frame space
	SIFS        = 10 * time.Microsecond // short inter-frame space (ACK turnaround)
	CWMin       = 31                    // initial contention window (slots - 1)
	CWMax       = 1023                  // maximum contention window
	RetryLimit  = 7                     // unicast retransmission limit
	QueueCap    = 64                    // interface queue capacity (frames)
	HeaderBytes = 58                    // 34 B MAC header + 24 B PHY preamble/PLCP, added to every frame
	AckBytes    = 38                    // 14 B ACK + PHY overhead
	RTSBytes    = 44                    // 20 B RTS + PHY overhead
	CTSBytes    = 38                    // 14 B CTS + PHY overhead
)

// Config is what a scenario varies about the MAC.
type Config struct {
	// RTSCTSEnabled precedes every unicast frame with an RTS/CTS
	// handshake; overhearing nodes set their network-allocation vector
	// (NAV) for the advertised exchange duration, which suppresses
	// hidden-terminal collisions at the cost of extra control frames.
	RTSCTSEnabled bool
}

// DefaultConfig is basic access, as in the paper's setup.
func DefaultConfig() Config { return Config{} }

// FrameHandler receives a frame's completion events without per-frame
// closures: one handler instance (the network layer) serves every frame
// it sends. FrameReleased fires once the MAC and radio are completely
// done with the frame — no queued, in-flight, or fault-delayed reference
// remains — and is where a pooling network layer reclaims the frame and
// its payload.
type FrameHandler interface {
	FrameSent(f *Frame)     // frame left the interface (broadcast) or was ACKed (unicast)
	FrameFailed(f *Frame)   // unicast retry limit exhausted or queue overflow
	FrameReleased(f *Frame) // last reference dropped; frame memory may be recycled
}

// Frame is one network-layer packet handed to the MAC for transmission.
// Completion is reported through Handler when set; a frame without one
// is fire-and-forget.
type Frame struct {
	To      int          // destination MAC address, BroadcastAddr for broadcast
	Bytes   int          // network-layer size in bytes (MAC adds HeaderBytes)
	Payload any          // opaque network-layer packet
	Handler FrameHandler // optional completion/release target

	// Failed reports how the frame completed (set before FrameFailed and
	// FrameReleased fire); a frame wiped by Reset is also marked failed.
	Failed bool

	refs int32 // queue slot + one per in-flight air frame
}

// release drops one reference; the last reference hands the frame to its
// handler for recycling.
func (f *Frame) release() {
	f.refs--
	if f.refs != 0 {
		return
	}
	if f.Handler != nil {
		f.Handler.FrameReleased(f)
	}
}

// DeliverFunc receives frames addressed to this node (or broadcast).
type DeliverFunc func(from int, f *Frame)

type airKind uint8

const (
	airData airKind = iota + 1
	airAck
	airRTS
	airCTS
)

// airFrame is what actually crosses the radio. Air frames are pooled per
// MAC and reference counted: the radio takes a reference per transmission
// (and per fault-delayed delivery), so the frame body stays readable
// until the last receiver is done, then returns to its owner's pool.
type airFrame struct {
	kind    airKind
	src     int
	dst     int
	seq     uint32
	retried bool
	bits    int           // on-air size, kept for deferred transmission
	dur     time.Duration // RTS/CTS: remaining exchange duration (NAV)
	frame   *Frame
	owner   *MAC
	refs    int32
}

// Ref implements radio.Releasable.
func (af *airFrame) Ref() { af.refs++ }

// Unref implements radio.Releasable; the last reference releases the
// underlying frame and recycles the air frame.
func (af *airFrame) Unref() {
	af.refs--
	if af.refs != 0 {
		return
	}
	if af.frame != nil {
		af.frame.release()
		af.frame = nil
	}
	af.owner.airPool.Put(af)
}

// Addressee implements radio.Addressed. Data and ACKs matter only at
// their destination (onRadio drops them anywhere else, and a broadcast's
// BroadcastAddr is everyone); an RTS or CTS sets every overhearer's NAV.
func (af *airFrame) Addressee() int {
	if af.kind == airRTS || af.kind == airCTS {
		return BroadcastAddr
	}
	return af.dst
}

var _ radio.Releasable = (*airFrame)(nil)
var _ radio.Addressed = (*airFrame)(nil)

// Stats are per-interface MAC counters.
type Stats struct {
	Sent        uint64 // data frames put on the air (including retries)
	Acked       uint64 // unicast frames successfully acknowledged
	Broadcast   uint64 // broadcast frames sent
	Retries     uint64 // retransmission attempts
	Failures    uint64 // frames dropped after retry exhaustion
	QueueDrops  uint64 // frames dropped on enqueue (queue full)
	Delivered   uint64 // frames delivered up the stack
	DupSuppress uint64 // duplicate retransmissions suppressed at receiver
	RTSSent     uint64 // RTS handshakes begun
	CTSTimeouts uint64 // RTS attempts with no CTS answer
}

// MAC is one node's medium-access instance.
type MAC struct {
	id      int
	sim     *sim.Simulator
	medium  *radio.Medium
	cfg     Config
	rng     *rng.Source
	deliver DeliverFunc

	queue    []*Frame
	inFlight bool
	cw       int
	retries  int
	seq      uint32

	awaitAckSeq uint32
	awaitAck    bool
	ackTimer    sim.Timer

	awaitCTS bool
	ctsTimer sim.Timer
	navUntil time.Duration

	lastSeq map[int]uint32 // receiver-side dedup: last data seq per source

	airPool runpool.Pool[airFrame] // recycled air frames, run-local

	// Pre-bound timer callbacks so arming a timer allocates no method
	// value.
	ackTimeoutFn func()
	ctsTimeoutFn func()

	// down gates the interface for fault injection: a powered-off MAC
	// neither transmits nor decodes. epoch invalidates scheduled
	// continuations (backoff expiry, idle notification, broadcast
	// completion) across a Reset: each carries the epoch at scheduling
	// time and becomes a no-op if the interface was power-cycled since.
	down  bool
	epoch uint32

	stats Stats
}

// New creates and attaches a MAC for node id.
func New(id int, s *sim.Simulator, medium *radio.Medium, cfg Config, src *rng.Source, deliver DeliverFunc) *MAC {
	m := &MAC{
		id:      id,
		sim:     s,
		medium:  medium,
		cfg:     cfg,
		rng:     src,
		deliver: deliver,
		cw:      CWMin,
		lastSeq: make(map[int]uint32),
	}
	m.ackTimeoutFn = m.ackTimeout
	m.ctsTimeoutFn = m.ctsTimeout
	medium.Attach(id, m.onRadio)
	return m
}

// ID returns the MAC address of this interface.
func (m *MAC) ID() int { return m.id }

// Stats returns a copy of the interface counters.
func (m *MAC) Stats() Stats { return m.stats }

// QueueLen returns the number of frames waiting in the interface queue.
func (m *MAC) QueueLen() int { return len(m.queue) }

// ForEachQueued invokes fn for every frame currently in the interface
// queue, head first — including an in-flight head still awaiting its
// ACK. Callers (crash accounting, the conformance census) must not
// mutate the queue from fn.
func (m *MAC) ForEachQueued(fn func(*Frame)) {
	for _, f := range m.queue {
		fn(f)
	}
}

// DataPayload unwraps the network-layer payload from an on-air frame
// captured at the radio boundary (a delayed delivery held by the fault
// hook). It returns false for anything that is not a MAC data frame —
// ACKs, RTS/CTS, or foreign payload types.
func DataPayload(airPayload any) (any, bool) {
	af, ok := airPayload.(*airFrame)
	if !ok || af.kind != airData || af.frame == nil {
		return nil, false
	}
	return af.frame.Payload, true
}

// SetDown powers the interface off (true) or on (false). While down the
// MAC neither transmits nor decodes: Send drops frames silently and
// received signals are ignored. The radio still counts signal energy at
// this node, so channel occupancy stays consistent for its neighbors.
func (m *MAC) SetDown(down bool) { m.down = down }

// Down reports whether the interface is powered off.
func (m *MAC) Down() bool { return m.down }

// Reset models a power-cycle: the interface queue, any in-flight
// exchange, backoff state, NAV, and the receiver's duplicate-suppression
// memory are discarded, and every pending timer or scheduled continuation
// is disarmed. Dropped frames invoke no FrameSent/FrameFailed callbacks
// — the state that would have handled them died with the node — but
// their queue references are dropped so the frames still reach
// FrameReleased (marked Failed) once the radio is done with them.
func (m *MAC) Reset() {
	m.epoch++
	m.ackTimer.Cancel()
	m.ackTimer = sim.Timer{}
	m.ctsTimer.Cancel()
	m.ctsTimer = sim.Timer{}
	m.awaitAck = false
	m.awaitCTS = false
	for i, f := range m.queue {
		f.Failed = true
		f.release()
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	m.inFlight = false
	m.retries = 0
	m.cw = CWMin
	m.navUntil = 0
	clear(m.lastSeq)
}

// Send enqueues a frame for transmission. If the interface queue is full
// the frame is dropped and its failure callback is invoked immediately. A
// powered-off interface drops frames without callbacks.
func (m *MAC) Send(f *Frame) {
	f.refs++ // the queue slot's reference (or the drop path's)
	if m.down {
		m.stats.QueueDrops++
		f.Failed = true
		f.release()
		return
	}
	if len(m.queue) >= QueueCap {
		m.stats.QueueDrops++
		f.Failed = true
		if f.Handler != nil {
			f.Handler.FrameFailed(f)
		}
		f.release()
		return
	}
	m.queue = append(m.queue, f)
	m.kick()
}

// kick starts the send state machine if it is idle and work is queued.
func (m *MAC) kick() {
	if m.inFlight || len(m.queue) == 0 {
		return
	}
	m.inFlight = true
	m.retries = 0
	m.cw = CWMin
	m.seq++
	m.attempt()
}

// Package-level continuation callbacks for sim.ScheduleTransient: the
// MAC pointer rides in arg and the power-cycle epoch in u, so scheduling
// a retry, backoff expiry, or broadcast completion allocates nothing.

// attemptTr resumes the carrier-sense cycle (NAV wait expiry).
func attemptTr(arg any, u uint64) {
	m := arg.(*MAC)
	if uint64(m.epoch) == u {
		m.attempt()
	}
}

// backoffTr fires at backoff expiry: transmit if the channel stayed
// clear, otherwise defer again.
func backoffTr(arg any, u uint64) {
	m := arg.(*MAC)
	if uint64(m.epoch) != u {
		return
	}
	if m.medium.Busy(m.id) || m.navUntil > m.sim.Now() {
		// Channel was captured during our backoff; defer again.
		m.attempt()
		return
	}
	m.transmitHead()
}

// bcastDoneTr completes a broadcast once its airtime has elapsed.
func bcastDoneTr(arg any, u uint64) {
	m := arg.(*MAC)
	if uint64(m.epoch) == u {
		m.completeHead(true)
	}
}

// ctsDataTr sends the head frame's data a SIFS after its CTS arrived,
// unless the interface was power-cycled or the exchange ended since: u
// carries the epoch in its high half and the exchange's seq in its low.
func ctsDataTr(arg any, u uint64) {
	m := arg.(*MAC)
	if uint64(m.epoch) == u>>32 && m.inFlight && len(m.queue) > 0 && m.seq == uint32(u) {
		m.transmitData(m.queue[0])
	}
}

// txAirTr transmits a pooled air frame after an inter-frame space (ACK
// and CTS responses), then drops the scheduling reference.
func txAirTr(arg any, _ uint64) {
	af := arg.(*airFrame)
	m := af.owner
	if !m.down {
		m.medium.Transmit(m.id, af.bits, af)
	}
	af.Unref()
}

// ChannelIdle implements radio.IdleWaiter: the medium went idle at this
// node; resume the pending carrier-sense cycle if the interface has not
// been power-cycled since it registered.
func (m *MAC) ChannelIdle(u uint64) {
	if uint64(m.epoch) == u {
		m.attempt()
	}
}

// attempt performs one carrier-sense + backoff cycle for the head frame.
// Both physical carrier sense and the NAV (when RTS/CTS is enabled) must
// show the channel idle. Every continuation it schedules carries the
// current epoch, so a Reset between scheduling and firing disarms it.
func (m *MAC) attempt() {
	if m.down || !m.inFlight || len(m.queue) == 0 {
		return // interface reset or powered down since this retry was queued
	}
	ep := uint64(m.epoch)
	if m.medium.Busy(m.id) {
		m.medium.NotifyIdle(m.id, m, ep)
		return
	}
	if wait := m.navUntil - m.sim.Now(); wait > 0 {
		m.sim.ScheduleTransient(wait, attemptTr, m, ep)
		return
	}
	backoff := DIFS + time.Duration(m.rng.Intn(m.cw+1))*SlotTime
	m.sim.ScheduleTransient(backoff, backoffTr, m, ep)
}

func (m *MAC) transmitHead() {
	f := m.queue[0]
	if m.useRTS(f) {
		m.sendRTS(f)
		return
	}
	m.transmitData(f)
}

// useRTS reports whether the head frame warrants an RTS/CTS handshake.
func (m *MAC) useRTS(f *Frame) bool {
	return m.cfg.RTSCTSEnabled && f.To != BroadcastAddr
}

// newAir draws an air frame from the pool, owned by this MAC with one
// reference (the caller's).
func (m *MAC) newAir(kind airKind, dst int, seq uint32, bits int) *airFrame {
	af := m.airPool.Get()
	af.kind = kind
	af.src = m.id
	af.dst = dst
	af.seq = seq
	af.retried = false
	af.bits = bits
	af.dur = 0
	af.frame = nil
	af.owner = m
	af.refs = 1
	return af
}

// sendRTS begins the RTS/CTS handshake for the head frame.
func (m *MAC) sendRTS(f *Frame) {
	dataAir := m.medium.AirTime((f.Bytes + HeaderBytes) * 8)
	ctsAir := m.medium.AirTime(CTSBytes * 8)
	ackAir := m.medium.AirTime(AckBytes * 8)
	// Duration field: everything after the RTS itself.
	dur := SIFS + ctsAir + SIFS + dataAir + SIFS + ackAir
	rts := m.newAir(airRTS, f.To, m.seq, RTSBytes*8)
	rts.dur = dur
	rtsAir := m.medium.Transmit(m.id, rts.bits, rts)
	rts.Unref()
	m.stats.RTSSent++

	m.awaitCTS = true
	timeout := rtsAir + SIFS + ctsAir + 4*SlotTime
	m.ctsTimer = m.sim.Schedule(timeout, m.ctsTimeoutFn)
}

func (m *MAC) ctsTimeout() {
	if !m.awaitCTS {
		return
	}
	m.awaitCTS = false
	m.stats.CTSTimeouts++
	m.retryHead()
}

// retryHead backs off and retries the head frame, giving up past the
// retry limit. Shared by the CTS and ACK timeout paths.
func (m *MAC) retryHead() {
	m.retries++
	m.stats.Retries++
	if m.retries > RetryLimit {
		m.stats.Failures++
		m.completeHead(false)
		return
	}
	if m.cw < CWMax {
		m.cw = min(2*(m.cw+1)-1, CWMax)
	}
	m.attempt()
}

// transmitData puts the head frame's data on the air.
func (m *MAC) transmitData(f *Frame) {
	af := m.newAir(airData, f.To, m.seq, (f.Bytes+HeaderBytes)*8)
	af.retried = m.retries > 0
	af.frame = f
	f.refs++ // the air frame reads f until its last reception ends
	air := m.medium.Transmit(m.id, af.bits, af)
	af.Unref()
	m.stats.Sent++

	if f.To == BroadcastAddr {
		m.stats.Broadcast++
		m.sim.ScheduleTransient(air, bcastDoneTr, m, uint64(m.epoch))
		return
	}

	// Unicast: wait for the ACK.
	m.awaitAck = true
	m.awaitAckSeq = m.seq
	ackAir := m.medium.AirTime(AckBytes * 8)
	timeout := air + SIFS + ackAir + 4*SlotTime
	m.ackTimer = m.sim.Schedule(timeout, m.ackTimeoutFn)
}

func (m *MAC) ackTimeout() {
	if !m.awaitAck {
		return
	}
	m.awaitAck = false
	m.retryHead()
}

// completeHead finishes the head-of-line frame and moves to the next.
// The queue is shift-drained (copy down, shrink from the tail) rather
// than head-sliced so the backing array is reused forever: a steady
// stream of sends stays allocation-free instead of reallocating a
// one-slot array per frame.
func (m *MAC) completeHead(ok bool) {
	f := m.queue[0]
	n := copy(m.queue, m.queue[1:])
	m.queue[n] = nil
	m.queue = m.queue[:n]
	m.inFlight = false
	if ok {
		if f.Handler != nil {
			f.Handler.FrameSent(f)
		}
	} else {
		f.Failed = true
		if f.Handler != nil {
			f.Handler.FrameFailed(f)
		}
	}
	f.release()
	m.kick()
}

func (m *MAC) onRadio(from int, payload any) {
	if m.down {
		return
	}
	af, ok := payload.(*airFrame)
	if !ok {
		return
	}
	switch af.kind {
	case airRTS:
		if af.dst == m.id {
			// Answer with CTS after SIFS; the CTS re-advertises the
			// remaining duration for third parties.
			cts := m.newAir(airCTS, af.src, af.seq, CTSBytes*8)
			cts.dur = af.dur
			m.sim.ScheduleTransient(SIFS, txAirTr, cts, 0)
			return
		}
		m.setNAV(af.dur)
	case airCTS:
		if af.dst == m.id && m.awaitCTS {
			m.awaitCTS = false
			m.ctsTimer.Cancel()
			m.sim.ScheduleTransient(SIFS, ctsDataTr, m, uint64(m.epoch)<<32|uint64(m.seq))
			return
		}
		m.setNAV(af.dur)
	case airAck:
		if af.dst == m.id && m.awaitAck && af.seq == m.awaitAckSeq {
			m.awaitAck = false
			m.ackTimer.Cancel()
			m.stats.Acked++
			m.completeHead(true)
		}
	case airData:
		if af.dst == m.id {
			m.sendAck(af)
			if af.retried && m.lastSeq[af.src] == af.seq {
				// The original got through but its ACK was lost; suppress
				// the duplicate delivery.
				m.stats.DupSuppress++
				return
			}
			m.lastSeq[af.src] = af.seq
			m.stats.Delivered++
			m.deliver(from, af.frame)
			return
		}
		if af.dst == BroadcastAddr {
			m.stats.Delivered++
			m.deliver(from, af.frame)
		}
	}
}

// setNAV extends the network-allocation vector: the node treats the
// channel as virtually busy until the overheard exchange completes.
func (m *MAC) setNAV(dur time.Duration) {
	if until := m.sim.Now() + dur; until > m.navUntil {
		m.navUntil = until
	}
}

func (m *MAC) sendAck(af *airFrame) {
	ack := m.newAir(airAck, af.src, af.seq, AckBytes*8)
	m.sim.ScheduleTransient(SIFS, txAirTr, ack, 0)
}
