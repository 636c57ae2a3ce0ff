package radio

import "time"

// TransmitPerReceiver is the reference schedule Transmit is checked
// against: the same frame, sender bookkeeping and receiver scan, but every
// receiver gets a one-reception record with its own start and its own end
// event, created in ascending id. The signal handling itself
// (signalStart, signalEnd, checkIdle, deliverFaulty) is shared; only the
// grouping of receptions into events differs.
func (m *Medium) TransmitPerReceiver(src, bits int, payload any) time.Duration {
	now := m.sim.Now()
	air := m.AirTime(bits)
	m.Transmissions++

	sender := &m.nodes[src]
	sender.txUntil = now + air
	for _, rc := range sender.active {
		if !rc.corrupted {
			rc.corrupted = true
			m.Corrupted++
		}
	}
	m.sim.ScheduleTransient(air, m.idleFn, nil, uint64(src))

	srcPos := m.position(src)
	for i := range m.nodes {
		if i == src || m.nodes[i].rx == nil {
			continue
		}
		if m.flt != nil && m.blocked(src, i) {
			m.FaultStats.Blocked++
			continue
		}
		d := srcPos.Dist(m.position(i))
		if d > m.csRange[src] {
			continue
		}
		tx := &transmission{
			from:    int32(src),
			payload: payload,
			recs:    []reception{{dst: int32(i), decodable: d <= m.txRange[src]}},
		}
		ref(payload)
		m.sim.ScheduleTransient(PropDelay, m.startFn, tx, 0)
		m.sim.ScheduleTransient(PropDelay+air, m.endFn, tx, 0)
	}
	return air
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
		if rc.decodable {
			for i, a := range st.active {
				if a == rc {
					st.active = append(st.active[:i], st.active[i+1:]...)
					break
				}
			}
			if !rc.corrupted && st.txUntil <= m.sim.Now() && st.rx != nil {
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
