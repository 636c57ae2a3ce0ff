package radio

import "time"

// PerReceiver is the medium as Transmit and the signal handling are checked
// against it: the code they replaced, kept whole. Its Transmit measures
// every node exactly, every receiver gets a one-reception record with its
// own start and its own end event, created in ascending id, and a node
// keeps the list of every decodable reception in the air with a corrupted
// mark on each, searched when one ends. The counters, the sender and idle
// bookkeeping (checkIdle) and the delivery (deliverFaulty) are the
// medium's own; a world driven through a PerReceiver never calls
// Medium.Transmit.
type PerReceiver struct {
	m      *Medium
	active [][]*refReception // per node: decodable receptions in the air there
}

// refReception is one receiver's record: a transmission of one reception.
type refReception struct {
	tx        transmission
	corrupted bool
}

// PerReceiver returns the reference over m.
func (m *Medium) PerReceiver() *PerReceiver {
	return &PerReceiver{m: m, active: make([][]*refReception, len(m.nodes))}
}

// Transmit is the reference for Medium.Transmit.
func (r *PerReceiver) Transmit(src, bits int, payload any) time.Duration {
	m := r.m
	now := m.sim.Now()
	air := m.AirTime(bits)
	m.Transmissions++

	m.nodes[src].txUntil = now + air
	r.corrupt(src)
	m.sim.ScheduleTransient(air, m.idleFn, nil, uint64(src))

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
		rc := &refReception{tx: transmission{
			from:    int32(src),
			payload: payload,
			recs:    []reception{{dst: int32(i), decodable: d <= m.txRange[src]}},
		}}
		ref(payload)
		m.sim.ScheduleTransient(PropDelay, r.signalStart, rc, 0)
		m.sim.ScheduleTransient(PropDelay+air, r.signalEnd, rc, 0)
	}
	return air
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
	dst, decodable := int(rc.tx.recs[0].dst), rc.tx.recs[0].decodable
	st := &m.nodes[dst]
	st.signals++
	if decodable {
		r.active[dst] = append(r.active[dst], rc)
	}
	if st.signals > 1 {
		r.corrupt(dst)
	}
	if st.txUntil > m.sim.Now() && decodable && !rc.corrupted {
		rc.corrupted = true
		m.Corrupted++
	}
}

func (r *PerReceiver) signalEnd(arg any, _ uint64) {
	m, rc := r.m, arg.(*refReception)
	dst := int(rc.tx.recs[0].dst)
	st := &m.nodes[dst]
	st.signals--
	if rc.tx.recs[0].decodable {
		for i, a := range r.active[dst] {
			if a == rc {
				r.active[dst] = append(r.active[dst][:i], r.active[dst][i+1:]...)
				break
			}
		}
		if !rc.corrupted && st.txUntil <= m.sim.Now() && st.rx != nil {
			if f := m.flt; f != nil && f.src != nil {
				m.deliverFaulty(f, &rc.tx, &rc.tx.recs[0])
			} else {
				st.rx(int(rc.tx.from), rc.tx.payload)
			}
		}
	}
	m.checkIdle(dst)
	unref(rc.tx.payload)
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

// endAll is Medium.endAll and signalEnd with the reference deliver in
// place of deliverFaulty.
func (r *ReferenceFaults) endAll(arg any, _ uint64) {
	m := r.m
	tx := arg.(*transmission)
	for i := range tx.recs {
		rc := &tx.recs[i]
		st := &m.nodes[rc.dst]
		st.signals--
		if st.clean == rc {
			st.clean = nil
			if st.rx != nil {
				if f := m.flt; f != nil && f.src != nil {
					r.deliver(f, tx, rc)
				} else {
					st.rx(int(tx.from), tx.payload)
				}
			}
		}
		m.checkIdle(int(rc.dst))
	}
	unref(tx.payload)
	tx.payload = nil
	tx.recs = tx.recs[:0]
	m.txPool.Put(tx)
}

func (r *ReferenceFaults) deliver(f *faults, tx *transmission, rc *reception) {
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
			m.nodes[rc.dst].rx(int(tx.from), tx.payload)
			continue
		}
		m.FaultStats.Delayed++
		from, dst, payload := int(tx.from), int(rc.dst), tx.payload
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
