// Fault-injection hooks for the medium: link blackout, network
// partition, and message-level drop/duplicate/delay. All state lives
// behind a single pointer that is nil in a fault-free simulation, so the
// hot paths (Transmit, endAll) pay one nil check and nothing else.
//
// Blackouts and partitions act at the physical layer: a blocked receiver
// gets neither the decodable frame nor its interference energy, exactly
// as if an obstacle absorbed the signal. They are the only faults that
// change who hears a frame: a frame copies its sender's sets without the
// nodes they hide (hidden, fill). Delivery faults act at the radio/MAC
// boundary instead — the frame occupies the channel normally (it
// collides, it defers other senders) and is then dropped, duplicated, or
// delayed at the moment it would be handed to the receiver's MAC. Every clean reception draws its
// faults, in id order; a copy of an Addressed frame at another node is
// drawn and counted but not handed over, since a MAC would drop it. A
// delayed copy is a pooled record on a transient event (see deferred), so
// a warm lossy medium allocates nothing per delivery.

package radio

import (
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/runpool"
)

// faults bundles every active fault hook; see the file comment.
type faults struct {
	// linkDown holds one row of len(Medium.clean) words per node: bit b of
	// row a is set while the a↔b link is severed, in both rows. cuts
	// counts the severed pairs.
	linkDown []uint64
	cuts     int
	part     []int32  // partition cell per node; nil = healed
	hide     []uint64 // hidden's result, one bit per node

	drop     float64       // P(frame silently lost at delivery)
	dup      float64       // P(frame delivered twice)
	delayMax time.Duration // uniform extra delivery latency bound
	src      *rng.Source   // stream for the delivery-fault draws

	// pending registers every delay-deferred delivery between its fault
	// draw and its hand-off, so that the conformance auditor's packet
	// census sees the frame (ForEachPendingDelivery); records come from
	// pool and fire through the one pre-bound handOffFn.
	pending   []*deferred
	pool      runpool.Pool[deferred]
	handOffFn func(any, uint64)
}

// deferred is one delayed delivery: what the hand-off event carries.
// slot is the record's index in faults.pending, kept current by the
// swap-remove there.
type deferred struct {
	from, dst int32
	slot      int32
	payload   any
}

// FaultStats counts fault-hook activity, for diagnostics and tests.
type FaultStats struct {
	Blocked    uint64 // receptions suppressed by blackout or partition
	Dropped    uint64 // deliveries lost to the drop probability
	Duplicated uint64 // deliveries duplicated
	Delayed    uint64 // deliveries deferred by a random delay
}

func (m *Medium) faultState() *faults {
	if m.flt == nil {
		m.flt = &faults{handOffFn: m.handOff}
	}
	return m.flt
}

// SetLinkDown severs (down=true) or heals (down=false) the radio link
// between nodes a and b in both directions. While severed, no signal —
// decodable or interfering — crosses the pair. Severing a severed pair or
// healing a healed one changes nothing.
func (m *Medium) SetLinkDown(a, b int, down bool) {
	f := m.faultState()
	if f.linkDown == nil {
		f.linkDown = make([]uint64, len(m.nodes)*len(m.clean))
	}
	if m.cut(a, b) == down {
		return
	}
	words := len(m.clean)
	f.linkDown[a*words+b>>6] ^= 1 << (b & 63)
	f.linkDown[b*words+a>>6] ^= 1 << (a & 63)
	if down {
		f.cuts++
	} else {
		f.cuts--
	}
}

// cut reports whether the a↔b link is severed. Only called with m.flt
// non-nil.
func (m *Medium) cut(a, b int) bool {
	f := m.flt
	return f.cuts > 0 && f.linkDown[a*len(m.clean)+b>>6]>>(b&63)&1 != 0
}

// SetPartition splits the network into cells: cells[i] is node i's cell
// number, and signals only propagate within a cell. Passing nil heals the
// partition. The slice is copied.
func (m *Medium) SetPartition(cells []int) {
	f := m.faultState()
	if cells == nil {
		f.part = nil
		return
	}
	f.part = make([]int32, len(cells))
	for i, c := range cells {
		f.part[i] = int32(c)
	}
}

// SetDeliveryFaults enables message-level faults: each frame that would
// be delivered is instead dropped with probability drop, duplicated with
// probability dup, and (independently) deferred by a uniform random delay
// in [0, delayMax). Draws come from src in delivery order, so runs remain
// reproducible. Passing a nil src disables delivery faults.
func (m *Medium) SetDeliveryFaults(drop, dup float64, delayMax time.Duration, src *rng.Source) {
	f := m.faultState()
	f.drop, f.dup, f.delayMax, f.src = drop, dup, delayMax, src
}

// ClearDeliveryFaults disables message-level faults; blackouts and
// partitions are unaffected.
func (m *Medium) ClearDeliveryFaults() {
	if m.flt != nil {
		m.flt.drop, m.flt.dup, m.flt.delayMax, m.flt.src = 0, 0, 0, nil
	}
}

// hidden returns the attached nodes other than src that a link cut or
// the partition hides from src, one bit each, and counts them in
// FaultStats.Blocked; nil while neither is installed.
func (m *Medium) hidden(src int) []uint64 {
	f := m.flt
	if f == nil || f.cuts == 0 && f.part == nil {
		return nil
	}
	if f.hide == nil {
		f.hide = make([]uint64, len(m.clean))
	}
	clear(f.hide)
	for i := range m.nodes {
		if i != src && m.nodes[i].rx != nil && m.blocked(src, i) {
			f.hide[i>>6] |= 1 << (i & 63)
			m.FaultStats.Blocked++
		}
	}
	return f.hide
}

// blocked reports whether the a↔b link is currently severed by a
// blackout or partition. Only called with m.flt non-nil.
func (m *Medium) blocked(a, b int) bool {
	f := m.flt
	return f.part != nil && f.part[a] != f.part[b] || m.cut(a, b)
}

// deliverFaulty applies the delivery-fault draws to one decodable,
// uncorrupted reception and invokes the receiver zero, one, or two
// times: one draw for drop, one for dup, then one delay per copy. A
// foreign reception, an Addressed frame at another node, makes the same
// draws and counts but invokes nothing and defers nothing.
func (m *Medium) deliverFaulty(f *faults, from, dst int, payload any, foreign bool) {
	copies := 1
	if f.drop > 0 && f.src.Float64() < f.drop {
		copies = 0
		m.FaultStats.Dropped++
	} else if f.dup > 0 && f.src.Float64() < f.dup {
		copies = 2
		m.FaultStats.Duplicated++
	}
	for c := 0; c < copies; c++ {
		var delay time.Duration
		if f.delayMax > 0 {
			delay = time.Duration(f.src.Float64() * float64(f.delayMax))
		}
		if delay > 0 {
			m.FaultStats.Delayed++
		}
		switch {
		case foreign: // drawn and counted; its MAC would drop it
		case delay <= 0:
			m.nodes[dst].rx(from, payload)
		default:
			d := f.pool.Get()
			d.from, d.dst, d.payload = int32(from), int32(dst), payload
			d.slot = int32(len(f.pending))
			f.pending = append(f.pending, d)
			// The deferred delivery outlives the reception, so it holds its
			// own payload reference until the hand-off fires.
			ref(d.payload)
			m.sim.ScheduleTransient(delay, f.handOffFn, d, 0)
		}
	}
}

// handOff is the pre-bound transient callback for a deferred delivery.
// The record leaves the census before the receiver runs, and the receiver
// callback is read now, not when the delay was drawn, so delivery to a
// node detached mid-delay is dropped, not crashed.
func (m *Medium) handOff(arg any, _ uint64) {
	d := arg.(*deferred)
	f := m.flt
	last := f.pending[len(f.pending)-1]
	last.slot = d.slot
	f.pending[d.slot] = last
	f.pending[len(f.pending)-1] = nil
	f.pending = f.pending[:len(f.pending)-1]

	if rx := m.nodes[d.dst].rx; rx != nil {
		rx(int(d.from), d.payload)
	}
	unref(d.payload)
	d.payload = nil
	f.pool.Put(d)
}

// ForEachPendingDelivery invokes fn for the payload of every delivery
// currently deferred by the delay fault hook. Iteration order is
// unspecified; callers build order-insensitive sets from it.
func (m *Medium) ForEachPendingDelivery(fn func(payload any)) {
	if m.flt == nil {
		return
	}
	for _, d := range m.flt.pending {
		fn(d.payload)
	}
}
