package metrics

import "testing"

// mapFates is the packet-conservation ledger as it was before the fate
// rows: one Go map keyed by (src, id), with the same first-terminal-
// event-wins rules. It is the reference FuzzFateRows holds the rows to.
type mapFates struct {
	fates                         map[[2]uint64]PacketFate
	initiated, delivered, dropped uint64
	duplicates, late              uint64
	inFlight                      int64
	byReason                      [numReasons]uint64
}

func (m *mapFates) initiate(src int, id uint64) {
	m.initiated++
	m.fates[[2]uint64{uint64(src), id}] = FateInFlight
	m.inFlight++
}

func (m *mapFates) terminal(src int, id uint64, f PacketFate, reason DropReason) bool {
	k := [2]uint64{uint64(src), id}
	switch m.fates[k] {
	case FateDelivered, FateDropped:
		if f == FateDelivered {
			m.duplicates++
		} else {
			m.late++
		}
		return false
	case FateInFlight:
		m.inFlight--
	}
	m.fates[k] = f
	if f == FateDelivered {
		m.delivered++
	} else {
		m.dropped++
		m.byReason[reason]++
	}
	return true
}

// FuzzFateRows runs a byte script of NoteInitiated, NoteDelivered and
// NoteDropped calls over a few sources and IDs against the map ledger:
// three bytes a call (which call, the source, the ID). The IDs cover 0,
// which OriginateData never issues, IDs past every row's end, repeated
// initiations, duplicate deliveries and late drops. After every call the
// return value, the counters and the fate of every (src, id) in the
// domain must match.
func FuzzFateRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 0, 1, 2, 0, 1})          // initiate, deliver, duplicate, late drop
	f.Add([]byte{1, 2, 9, 1, 2, 9, 2, 3, 0, 2, 3, 0, 1, 3, 0}) // never initiated, ID 0
	f.Add([]byte{0, 3, 2, 0, 3, 2, 2, 3, 2, 0, 3, 2, 1, 3, 2}) // initiated twice, dropped, initiated again
	f.Fuzz(func(t *testing.T, script []byte) {
		const sources, ids = 4, 12
		c := NewCollector()
		ref := &mapFates{fates: map[[2]uint64]PacketFate{}}
		for i := 0; i+2 < len(script); i += 3 {
			src, id := int(script[i+1]%sources), uint64(script[i+2]%ids)
			switch script[i] % 3 {
			case 0:
				c.NoteInitiated(src, id)
				ref.initiate(src, id)
			case 1:
				if got, want := c.NoteDelivered(src, id), ref.terminal(src, id, FateDelivered, 0); got != want {
					t.Fatalf("call %d: NoteDelivered(%d, %d) = %v, the map ledger says %v", i/3, src, id, got, want)
				}
			case 2:
				reason := DropReason(script[i+2] % uint8(numReasons))
				if got, want := c.NoteDropped(src, id, reason), ref.terminal(src, id, FateDropped, reason); got != want {
					t.Fatalf("call %d: NoteDropped(%d, %d) = %v, the map ledger says %v", i/3, src, id, got, want)
				}
			}
			if c.DataInitiated != ref.initiated || c.DataDelivered != ref.delivered || c.DataDropped != ref.dropped ||
				c.DuplicateDeliveries != ref.duplicates || c.LateDrops != ref.late || c.InFlight() != ref.inFlight ||
				c.DropByReason != ref.byReason {
				t.Fatalf("call %d: counters %+v, the map ledger's %+v", i/3, c, ref)
			}
			for s := 0; s <= sources; s++ {
				for id := uint64(0); id <= ids; id++ {
					if got, want := c.FateOf(s, id), ref.fates[[2]uint64{uint64(s), id}]; got != want {
						t.Fatalf("call %d: FateOf(%d, %d) = %d, the map ledger says %d", i/3, s, id, got, want)
					}
				}
			}
		}
	})
}
