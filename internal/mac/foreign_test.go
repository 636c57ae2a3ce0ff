package mac

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// macState is everything of a MAC a received frame could change, and what
// it has scheduled.
type macState struct {
	stats                   Stats
	navUntil                time.Duration
	queue                   []*Frame
	inFlight, awaitAck      bool
	awaitCTS, down          bool
	cw, retries             int
	seq, awaitAckSeq, epoch uint32
	ackTimer, ctsTimer      sim.Timer
	lastSeq                 map[int]uint32
	pending                 int
	fired                   uint64
	pooled                  int
}

func stateOf(m *MAC) macState {
	return macState{
		stats: m.stats, navUntil: m.navUntil, queue: slices.Clone(m.queue),
		inFlight: m.inFlight, awaitAck: m.awaitAck, awaitCTS: m.awaitCTS, down: m.down,
		cw: m.cw, retries: m.retries, seq: m.seq, awaitAckSeq: m.awaitAckSeq, epoch: m.epoch,
		ackTimer: m.ackTimer, ctsTimer: m.ctsTimer, lastSeq: maps.Clone(m.lastSeq),
		pending: m.sim.Pending(), fired: m.sim.EventsFired(), pooled: m.airPool.Len(),
	}
}

// foreign is an air frame of kind from node from to node to, as its
// sender's MAC builds it.
func foreign(sender *MAC, kind airKind, to int, seq uint32, retried bool) *airFrame {
	af := sender.newAir(kind, to, seq, 512)
	af.retried = retried
	af.dur = 3 * time.Millisecond
	if kind == airData {
		af.frame = &Frame{To: to, Bytes: 64, refs: 1}
	}
	return af
}

// TestForeignUnicastChangesNothing: a data frame or an ACK addressed to
// another node leaves an overhearing MAC as it was — counters, NAV, queue,
// timers, duplicate memory, pooled frames and the events it has scheduled
// — whatever exchange the overhearer is in the middle of. That is what
// lets the radio end such a frame at its addressee alone
// (radio.Addressed). RTS and CTS are addressed to everyone: they set an
// overhearer's NAV.
func TestForeignUnicastChangesNothing(t *testing.T) {
	for _, rts := range []bool{false, true} {
		s := sim.New()
		medium := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 120}, {X: 240}, {X: 120, Y: 100}}), radio.DefaultConfig())
		root := rng.New(5)
		macs := make([]*MAC, 4)
		for i := range macs {
			macs[i] = New(i, s, medium, Config{RTSCTSEnabled: rts}, root.Split(string(rune('a'+i))), func(int, *Frame) {})
		}
		// Node 2 overhears every exchange between the others while it sends
		// to 0 and 1 and hears from both.
		for k := 0; k < 30; k++ {
			macs[0].Send(&Frame{To: 1 + k%3, Bytes: 200 + k})
			macs[1].Send(&Frame{To: k % 4 &^ 1, Bytes: 300})
			macs[2].Send(&Frame{To: k % 2, Bytes: 100})
			macs[3].Send(&Frame{To: k % 2, Bytes: 150})
		}
		ear, checked := macs[2], 0
		for s.Step() {
			// Frames for nodes 1 and 3 carrying the sequence numbers the
			// overhearer is waiting on or remembers, fresh and retried.
			for _, seq := range []uint32{ear.awaitAckSeq, ear.lastSeq[0], ear.lastSeq[1], ear.seq} {
				for _, kind := range []airKind{airData, airAck} {
					for _, to := range []int{1, 3} {
						af := foreign(macs[0], kind, to, seq, seq%2 == 0)
						before := stateOf(ear)
						ear.onRadio(0, af)
						if after := stateOf(ear); !reflect.DeepEqual(before, after) {
							t.Fatalf("rts=%v t=%v: kind %d for node %d seq %d changed node 2: %+v, was %+v",
								rts, s.Now(), kind, to, seq, after, before)
						}
						af.Unref()
						checked++
					}
				}
			}
		}
		if ear.stats.Acked == 0 || ear.stats.Delivered == 0 || len(ear.lastSeq) < 2 || checked < 1000 ||
			rts && ear.stats.RTSSent == 0 {
			t.Errorf("rts=%v: scenario too tame: node 2 %+v, duplicate memory %v, %d frames checked", rts, ear.stats, ear.lastSeq, checked)
		}

		// RTS and CTS for other nodes still set the NAV.
		for _, kind := range []airKind{airRTS, airCTS} {
			s.Run(s.Now() + time.Second)
			af := foreign(macs[0], kind, 1, 1, false)
			want := s.Now() + af.dur
			ear.onRadio(0, af)
			af.Unref()
			if ear.navUntil != want {
				t.Errorf("rts=%v: an overheard %d left the NAV at %v, want %v", rts, kind, ear.navUntil, want)
			}
		}
	}
}
