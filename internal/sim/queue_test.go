package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The event queue against a model that is obviously right: a slice of the
// pending (time, scheduling order) pairs, scanned for its minimum. Both the
// random test and the fuzz target feed checkQueueOps a byte string of
// schedule / cancel / step operations.

// modelEvent is one scheduled event as the model sees it.
type modelEvent struct {
	at      time.Duration
	pending bool
	timer   Timer // zero for transient events, which have no handle
}

// checkQueueOps interprets ops two bytes at a time — an opcode and an
// argument — on a fresh Simulator and on the model, and fails on the first
// disagreement: which event a Step fires, what every Timer handle reports,
// how many events are pending, and whether every queued event's index is
// its position in a well-formed heap.
func checkQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	s := New()
	var model []modelEvent // indexed by scheduling order, which is seq order
	fired := -1

	step := func() {
		want := -1
		for id, m := range model {
			if m.pending && (want < 0 || m.at < model[want].at) {
				want = id // ties keep the earlier id: FIFO within an instant
			}
		}
		fired = -1
		if ok := s.Step(); ok != (want >= 0) {
			t.Fatalf("Step() = %v, model's next event is %d", ok, want)
		}
		if fired != want {
			t.Fatalf("Step fired event %d, model says %d", fired, want)
		}
		if want >= 0 {
			model[want].pending = false
			if s.Now() != model[want].at {
				t.Fatalf("clock %v after firing an event due at %v", s.Now(), model[want].at)
			}
		}
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 4 {
		case 0: // cancellable event; few distinct delays, so ties are common
			id := len(model)
			tm := s.Schedule(time.Duration(arg%16), func() { fired = id })
			model = append(model, modelEvent{at: s.Now() + time.Duration(arg%16), pending: true, timer: tm})
		case 1: // transient event
			id := len(model)
			s.ScheduleTransient(time.Duration(arg%16), func(_ any, u uint64) { fired = int(u) }, nil, uint64(id))
			model = append(model, modelEvent{at: s.Now() + time.Duration(arg%16), pending: true})
		case 2: // cancel any handle ever issued: pending, fired or cancelled
			if len(model) == 0 {
				continue
			}
			id := int(arg) % len(model)
			model[id].timer.Cancel()
			if model[id].timer.ev != nil {
				model[id].pending = false
			}
		case 3:
			step()
		}
		checkQueueInvariants(t, s, model)
	}
	for s.Pending() > 0 {
		step()
	}
	step() // and an empty queue refuses
	checkQueueInvariants(t, s, model)
}

func checkQueueInvariants(t *testing.T, s *Simulator, model []modelEvent) {
	t.Helper()
	pending := 0
	for id, m := range model {
		if m.pending {
			pending++
		}
		if m.timer.ev == nil {
			continue
		}
		if m.timer.Pending() != m.pending {
			t.Fatalf("timer %d: Pending() = %v, model says %v", id, m.timer.Pending(), m.pending)
		}
		if m.pending && m.timer.Time() != m.at {
			t.Fatalf("timer %d: Time() = %v, scheduled for %v", id, m.timer.Time(), m.at)
		}
	}
	if s.Pending() != pending {
		t.Fatalf("Pending() = %d, model has %d", s.Pending(), pending)
	}
	for i, e := range s.queue {
		if e.ev.index != i || e.ev.at != e.at || e.ev.seq != e.seq {
			t.Fatalf("queue[%d] = (%v, %d) holds event (%v, %d) with index %d",
				i, e.at, e.seq, e.ev.at, e.ev.seq, e.ev.index)
		}
		if i > 0 && e.before(s.queue[(i-1)/4]) {
			t.Fatalf("queue[%d] sorts before its parent queue[%d]", i, (i-1)/4)
		}
	}
}

func TestQueueMatchesSortedModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 2*(1+r.Intn(400)))
		r.Read(ops)
		// Bias some trials towards a deep queue with cancels from the middle.
		if trial%3 == 0 {
			for i := 0; i < len(ops); i += 2 {
				if i < len(ops)/2 {
					ops[i] &^= 3 // first half: only Schedule
				} else if ops[i]%4 < 2 {
					ops[i] = 2 // second half: cancel and step
				}
			}
		}
		checkQueueOps(t, ops)
	}
}

// FuzzEventQueue lets the fuzzer look for an operation sequence on which
// the heap and the model part ways. The seeds run as ordinary tests.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 0, 1, 3, 0, 3, 0, 3, 0})             // ties, then drain in FIFO order
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 4, 2, 2, 2, 0}) // cancel from the middle, then the root
	f.Add([]byte{1, 3, 0, 3, 1, 3, 2, 0, 2, 1, 3, 0, 2, 1, 3, 0}) // transient handles are inert; stale cancel after firing
	deep := make([]byte, 0, 512)
	for i := 0; i < 128; i++ { // a deep queue, then cancels from all over it between steps
		deep = append(deep, 0, byte(i*7))
	}
	for i := 0; i < 128; i++ {
		deep = append(deep, 2+byte(i%2), byte(i*37))
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("the model is quadratic")
		}
		checkQueueOps(t, ops)
	})
}
