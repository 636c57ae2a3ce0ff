package radio

import (
	"fmt"
	"slices"
	"time"
)

// PerReceiver is the medium as Transmit and the signal handling are checked
// against it: the code they replaced, kept whole. Its Transmit measures
// every node exactly, every receiver gets a one-reception record with its
// own start and its own end event, created in ascending id, and a node
// keeps a count of the signals it senses and the list of every decodable
// reception in the air with a corrupted mark on each, searched when one
// ends; carrier sense and idle waiters (Busy, NotifyIdle) read that count.
// Every clean reception is delivered, addressed or not. The counters, the
// nodes' own transmit times and the delivery (deliverFaulty) are the
// medium's; a world driven through a PerReceiver calls none of
// Medium.Transmit, Busy and NotifyIdle.
type PerReceiver struct {
	m       *Medium
	signals []int             // per node: signals sensed there
	active  [][]*refReception // per node: decodable receptions in the air there
	onIdle  [][]idleWait      // per node: waiters for an idle channel
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
		if d > m.csRange[src] {
			continue
		}
		rc := &refReception{from: src, dst: i, decodable: d <= m.txRange[src], payload: payload}
		ref(payload)
		m.sim.ScheduleTransient(PropDelay, r.signalStart, rc, 0)
		m.sim.ScheduleTransient(PropDelay+air, r.signalEnd, rc, 0)
	}
	return air
}

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
			if f := m.flt; f != nil && f.src != nil {
				m.deliverFaulty(f, rc.from, rc.dst, rc.payload)
			} else {
				st.rx(rc.from, rc.payload)
			}
		}
	}
	r.checkIdle(rc.dst)
	unref(rc.payload)
}

// CheckSets reports the first way the medium's node bitsets disagree,
// between events, with what they stand for: a waiter bit is set exactly
// where idle waiters are registered, and a clean bit only where one frame
// in the air is sensed, that frame is decodable there, and the node is not
// transmitting. No bit is set beyond the last node.
func (m *Medium) CheckSets() error {
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

// Receiver returns the callback attached for node id, so a test can wrap
// what a MAC registered.
func (m *Medium) Receiver(id int) ReceiverFunc { return m.nodes[id].rx }

// ReferenceFaults is the delivery-fault hook handOff and the pooled
// deferred record are checked against: every delayed copy is a heap
// closure handed to Schedule, and the census registry is a map keyed by a
// running number. Drop, dup and delay draws, FaultStats, the payload
// reference per deferred copy and the receiver re-read at fire time are
// as in deliverFaulty.
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
	i, last := slices.Index(m.active, tx), len(m.active)-1
	m.active[i], m.active[last] = m.active[last], nil
	m.active = m.active[:last]
	m.ending, m.passed = tx, -1
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
		if delay <= 0 {
			m.nodes[dst].rx(from, payload)
			continue
		}
		m.FaultStats.Delayed++
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

// ForEachPendingDelivery is Medium.ForEachPendingDelivery over the
// reference registry.
func (r *ReferenceFaults) ForEachPendingDelivery(fn func(payload any)) {
	for _, p := range r.pending {
		fn(p)
	}
}
