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
