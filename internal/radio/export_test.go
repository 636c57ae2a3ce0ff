package radio

import (
	"fmt"
	"time"
)

// PerReceiver is the medium as Transmit and the signal handling are checked
// against it: the code they replaced, kept whole. Its Transmit measures
// every node exactly, every receiver gets a one-reception record with its
// own start and its own end event, created in ascending id, and a node
// keeps a count of the signals it senses and the list of every decodable
// reception in the air with a corrupted mark on each, searched when one
// ends; carrier sense and idle waiters (Busy, NotifyIdle) read that count.
// Without delivery faults every clean reception is delivered, addressed or
// not. With them, a foreign one (foreignAt) makes its draws (refDraws) and
// is handed to nobody; any other goes through the medium's deliverFaulty.
// The counters and the nodes' own transmit times are the medium's; a world
// driven through a PerReceiver calls none of Medium.Transmit, Busy and
// NotifyIdle.
type PerReceiver struct {
	m       *Medium
	signals []int             // per node: signals sensed there
	active  [][]*refReception // per node: decodable receptions in the air there
	onIdle  [][]idleWait      // per node: waiters for an idle channel
	foreign int               // foreign clean receptions under delivery faults
}

// refReception is one receiver's record of one transmission.
type refReception struct {
	from, dst int
	decodable bool
	payload   any
	corrupted bool
}

// PerReceiver returns the reference over m.
func (m *Medium) PerReceiver() *PerReceiver {
	n := len(m.nodes)
	return &PerReceiver{m: m, signals: make([]int, n), active: make([][]*refReception, n), onIdle: make([][]idleWait, n)}
}

// Transmit is the reference for Medium.Transmit.
func (r *PerReceiver) Transmit(src, bits int, payload any) time.Duration {
	m := r.m
	now := m.sim.Now()
	air := m.AirTime(bits)
	m.Transmissions++

	m.nodes[src].txUntil = now + air
	r.corrupt(src)
	m.sim.ScheduleTransient(air, r.idleAt, nil, uint64(src))

	srcPos := m.model.Position(src, now)
	for i := range m.nodes {
		if i == src || m.nodes[i].rx == nil {
			continue
		}
		if m.flt != nil && m.blocked(src, i) {
			m.FaultStats.Blocked++
			continue
		}
		d := srcPos.Dist(m.model.Position(i, now))
		if d > DefaultCSRange {
			continue
		}
		rc := &refReception{from: src, dst: i, decodable: d <= DefaultRange, payload: payload}
		ref(payload)
		m.sim.ScheduleTransient(PropDelay, r.signalStart, rc, 0)
		m.sim.ScheduleTransient(PropDelay+air, r.signalEnd, rc, 0)
	}
	return air
}

// Foreign returns how many foreign clean receptions made their fault
// draws without a callback.
func (r *PerReceiver) Foreign() int { return r.foreign }

// Busy is the reference for Medium.Busy.
func (r *PerReceiver) Busy(id int) bool {
	return r.signals[id] > 0 || r.m.nodes[id].txUntil > r.m.sim.Now()
}

// NotifyIdle is the reference for Medium.NotifyIdle.
func (r *PerReceiver) NotifyIdle(id int, w IdleWaiter, u uint64) {
	if !r.Busy(id) {
		r.m.sim.ScheduleTransient(0, idleNowFn, w, u)
		return
	}
	r.onIdle[id] = append(r.onIdle[id], idleWait{w: w, u: u})
}

func (r *PerReceiver) idleAt(_ any, u uint64) { r.checkIdle(int(u)) }

func (r *PerReceiver) checkIdle(id int) {
	if r.Busy(id) || len(r.onIdle[id]) == 0 {
		return
	}
	cbs := r.onIdle[id]
	r.onIdle[id] = nil
	for _, w := range cbs {
		w.w.ChannelIdle(w.u)
	}
}

// corrupt marks every decodable reception in the air at node as lost.
func (r *PerReceiver) corrupt(node int) {
	for _, rc := range r.active[node] {
		if !rc.corrupted {
			rc.corrupted = true
			r.m.Corrupted++
		}
	}
}

func (r *PerReceiver) signalStart(arg any, _ uint64) {
	m, rc := r.m, arg.(*refReception)
	r.signals[rc.dst]++
	if rc.decodable {
		r.active[rc.dst] = append(r.active[rc.dst], rc)
	}
	if r.signals[rc.dst] > 1 {
		r.corrupt(rc.dst)
	}
	if m.nodes[rc.dst].txUntil > m.sim.Now() && rc.decodable && !rc.corrupted {
		rc.corrupted = true
		m.Corrupted++
	}
}

func (r *PerReceiver) signalEnd(arg any, _ uint64) {
	m, rc := r.m, arg.(*refReception)
	st := &m.nodes[rc.dst]
	r.signals[rc.dst]--
	if rc.decodable {
		for i, a := range r.active[rc.dst] {
			if a == rc {
				r.active[rc.dst] = append(r.active[rc.dst][:i], r.active[rc.dst][i+1:]...)
				break
			}
		}
		if !rc.corrupted && m.nodes[rc.dst].txUntil <= m.sim.Now() && st.rx != nil {
			switch f := m.flt; {
			case f == nil || f.src == nil:
				st.rx(rc.from, rc.payload)
			case foreignAt(rc.payload, rc.dst):
				r.foreign++
				refDraws(m, f)
			default:
				m.deliverFaulty(f, rc.from, rc.dst, rc.payload, false)
			}
		}
	}
	r.checkIdle(rc.dst)
	unref(rc.payload)
}

// CheckSets reports the first way the medium's node bitsets disagree,
// between events, with what they stand for: each air word is the OR of
// the frames in the air's sensed words, a waiter bit is set exactly where
// idle waiters are registered, and a clean bit only where one frame in the
// air is sensed, that frame is decodable there, and the node is not
// transmitting. No bit is set beyond the last node.
func (m *Medium) CheckSets() error {
	for w := range m.air {
		var air uint64
		for _, tx := range m.active {
			air |= tx.sensed[w]
		}
		if m.air[w] != air {
			return fmt.Errorf("air word %d is %#x, the frames in the air sense %#x", w, m.air[w], air)
		}
	}
	for i := 0; i < len(m.clean)*64; i++ {
		w, b := i>>6, uint64(1)<<(i&63)
		waiting, clean := m.waiters[w]&b != 0, m.clean[w]&b != 0
		if i >= len(m.nodes) {
			if waiting || clean {
				return fmt.Errorf("bit %d set beyond %d nodes (waiter %v, clean %v)", i, len(m.nodes), waiting, clean)
			}
			continue
		}
		if waiting != (len(m.nodes[i].onIdle) > 0) {
			return fmt.Errorf("node %d: waiter bit %v with %d waiters", i, waiting, len(m.nodes[i].onIdle))
		}
		if !clean {
			continue
		}
		var sensed, decodable int
		for _, tx := range m.active {
			if tx.sensed[w]&b != 0 {
				sensed++
			}
			if tx.decodable[w]&b != 0 {
				decodable++
			}
		}
		if sensed != 1 || decodable != 1 || m.nodes[i].txUntil > m.sim.Now() {
			return fmt.Errorf("node %d clean with %d frames sensed, %d decodable, transmitting until %v at %v",
				i, sensed, decodable, m.nodes[i].txUntil, m.sim.Now())
		}
	}
	return nil
}

// Decisions returns how many sender-receiver pairs were decided from
// positions rather than copied from a sender's sets.
func (m *Medium) Decisions() uint64 { return m.decided }

// Receiver returns the callback attached for node id, so a test can wrap
// what a MAC registered.
func (m *Medium) Receiver(id int) ReceiverFunc { return m.nodes[id].rx }

// ReferenceFaults is the delivery-fault hook handOff and the pooled
// deferred record are checked against: every delayed copy is a heap
// closure handed to Schedule, and the census registry is a map keyed by a
// running number. Drop, dup and delay draws (refDraws), FaultStats, the
// payload reference per deferred copy, the receiver re-read at fire time
// and a foreign copy handed to nobody are as in deliverFaulty.
type ReferenceFaults struct {
	m       *Medium
	pending map[uint64]any
	seq     uint64
}

// UseReferenceFaults makes every later reception on m end through the
// reference hook. Transmit schedules m.endFn, so replacing that one
// callback is the whole switch.
func (m *Medium) UseReferenceFaults() *ReferenceFaults {
	r := &ReferenceFaults{m: m, pending: make(map[uint64]any)}
	m.endFn = r.endAll
	return r
}

// endAll is Medium.endAll with the reference deliver in place of
// deliverFaulty.
func (r *ReferenceFaults) endAll(arg any, _ uint64) {
	m := r.m
	tx := arg.(*transmission)
	m.leave(tx)
	for j, clean := m.nextEnd(tx); j >= 0; j, clean = m.nextEnd(tx) {
		if clean && m.nodes[j].rx != nil {
			if f := m.flt; f != nil && f.src != nil {
				r.deliver(f, int(tx.from), j, tx.payload)
			} else {
				m.nodes[j].rx(int(tx.from), tx.payload)
			}
		}
		m.checkIdle(j)
	}
	m.retire(tx)
}

func (r *ReferenceFaults) deliver(f *faults, from, dst int, payload any) {
	m := r.m
	for _, delay := range refDraws(m, f) {
		if foreignAt(payload, dst) {
			continue
		}
		if delay <= 0 {
			m.nodes[dst].rx(from, payload)
			continue
		}
		key := r.seq
		r.seq++
		r.pending[key] = payload
		ref(payload)
		m.sim.Schedule(delay, func() {
			delete(r.pending, key)
			if rx := m.nodes[dst].rx; rx != nil {
				rx(from, payload)
			}
			unref(payload)
		})
	}
}

// foreignAt is the addressee rule as the references apply it: payload
// names an addressee, and it is not dst.
func foreignAt(payload any, dst int) bool {
	a, ok := payload.(Addressed)
	return ok && a.Addressee() >= 0 && a.Addressee() != dst
}

// refDraws makes the delivery-fault draws for one clean reception and
// counts them in FaultStats: one for drop, one for dup, then one delay per
// copy. It returns the copies' delays, none for a dropped frame and two
// for a duplicated one.
func refDraws(m *Medium, f *faults) []time.Duration {
	copies := 1
	if f.drop > 0 && f.src.Float64() < f.drop {
		copies = 0
		m.FaultStats.Dropped++
	} else if f.dup > 0 && f.src.Float64() < f.dup {
		copies = 2
		m.FaultStats.Duplicated++
	}
	delays := make([]time.Duration, copies)
	for c := range delays {
		if f.delayMax > 0 {
			delays[c] = time.Duration(f.src.Float64() * float64(f.delayMax))
		}
		if delays[c] > 0 {
			m.FaultStats.Delayed++
		}
	}
	return delays
}

// ForEachPendingDelivery is Medium.ForEachPendingDelivery over the
// reference registry.
func (r *ReferenceFaults) ForEachPendingDelivery(fn func(payload any)) {
	for _, p := range r.pending {
		fn(p)
	}
}
