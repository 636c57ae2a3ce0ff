package sim

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// The event queue against a model that is obviously right: a slice of the
// pending (time, scheduling order) pairs, scanned for its minimum. Both the
// random test and the fuzz target feed checkQueueOps a byte string of
// schedule / cancel / step / run operations.

// modelEvent is one scheduled event as the model sees it.
type modelEvent struct {
	at      time.Duration
	pending bool
	timer   Timer // zero for transient events, which have no handle
}

// delayOf spreads an argument byte logarithmically from 0 ns to about 16 s:
// the low three bits are a mantissa and the high five an exponent. A
// quarter of the values are 0–7 ns, so same-instant ties are common, and a
// quarter land past the ring's horizon (2^25 ns), in the far heap.
func delayOf(arg byte) time.Duration {
	e, m := arg>>3, time.Duration(arg&7)
	if e == 0 {
		return m
	}
	return (8 + m) << (e - 1)
}

// checkQueueOps interprets ops two bytes at a time — an opcode and an
// argument — on a fresh Simulator and on the model, and fails on the first
// disagreement: which events a Step or a Run fires and in what order, where
// the clock stands, what every Timer handle reports, how many events are
// pending, and whether both tiers of the queue are well formed.
func checkQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	s := New()
	var model []modelEvent // indexed by scheduling order, which is seq order
	var fired []int        // the ids the callbacks ran, in order

	next := func() int { // the model's earliest pending event, or -1
		want := -1
		for id, m := range model {
			if m.pending && (want < 0 || m.at < model[want].at) {
				want = id // ties keep the earlier id: FIFO within an instant
			}
		}
		return want
	}
	expect := func(op string, want []int) {
		if len(fired) != len(want) {
			t.Fatalf("%s fired %v, model says %v", op, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("%s fired %v, model says %v", op, fired, want)
			}
		}
		fired = fired[:0]
	}
	step := func() {
		var want []int
		if id := next(); id >= 0 {
			want = append(want, id)
			model[id].pending = false
		}
		if ok := s.Step(); ok != (len(want) > 0) {
			t.Fatalf("Step() = %v, model's next events are %v", ok, want)
		}
		expect("Step", want)
		if len(want) > 0 && s.Now() != model[want[0]].at {
			t.Fatalf("clock %v after firing an event due at %v", s.Now(), model[want[0]].at)
		}
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 5 {
		case 0: // cancellable event
			id := len(model)
			tm := s.Schedule(delayOf(arg), func() { fired = append(fired, id) })
			model = append(model, modelEvent{at: s.Now() + delayOf(arg), pending: true, timer: tm})
		case 1: // transient event
			id := len(model)
			s.ScheduleTransient(delayOf(arg), func(_ any, u uint64) { fired = append(fired, int(u)) }, nil, uint64(id))
			model = append(model, modelEvent{at: s.Now() + delayOf(arg), pending: true})
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
		case 4: // run to a deadline, which may move the clock with nothing firing
			until := s.Now() + delayOf(arg)
			var want []int
			for id := next(); id >= 0 && model[id].at <= until; id = next() {
				want = append(want, id)
				model[id].pending = false
			}
			s.Run(until)
			expect("Run", want)
			if s.Now() != until {
				t.Fatalf("clock %v after Run(%v)", s.Now(), until)
			}
		}
		checkQueueInvariants(t, s, model)
	}
	for s.Pending() > 0 {
		step()
	}
	step() // and an empty queue refuses
	checkQueueInvariants(t, s, model)
}

// checkQueueInvariants compares every handle and the pending count with the
// model, then checks the queue's shape: a ring bucket's occupancy bit is
// set exactly when its list is non-empty; each list is doubly linked,
// sorted by (time, seq) and holds only events of its own slot within the
// ring's window; the far heap's entries carry their event's key and index
// and never sort before their parent; and the two tiers together hold
// Pending() events.
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

	q := &s.queue
	inRingCount := 0
	if q.ring != nil {
		for w, word := range q.ring.occupied {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				b := q.ring.buckets[i]
				if b.head == nil {
					t.Fatalf("bucket %d: occupancy bit set on an empty list", i)
				}
				var prev *Event
				for ev := b.head; ev != nil; prev, ev = ev, ev.next {
					inRingCount++
					if ev.prev != prev || ev.index != inRing || ev.owner != s {
						t.Fatalf("bucket %d: event (%v, %d) has prev %p (want %p), index %d, owner %p",
							i, ev.at, ev.seq, ev.prev, prev, ev.index, ev.owner)
					}
					if int(slot(ev.at)&ringMask) != i || slot(ev.at)-q.base >= ringSize {
						t.Fatalf("bucket %d holds an event due %v, outside its slot in the window from slot %d", i, ev.at, q.base)
					}
					if prev != nil && !(entry{at: prev.at, seq: prev.seq}).before(entry{at: ev.at, seq: ev.seq}) {
						t.Fatalf("bucket %d: (%v, %d) after (%v, %d)", i, ev.at, ev.seq, prev.at, prev.seq)
					}
				}
				if b.tail != prev {
					t.Fatalf("bucket %d: tail %p, last event %p", i, b.tail, prev)
				}
			}
		}
	}
	// A non-empty list whose bit is clear holds events the walk above
	// missed, so the count falls short of q.near, which Pending() matched
	// with the model.
	if inRingCount != q.near {
		t.Fatalf("ring lists hold %d events, count says %d", inRingCount, q.near)
	}
	for i, e := range q.far {
		if e.ev.index != i || e.ev.at != e.at || e.ev.seq != e.seq || e.ev.prev != nil || e.ev.next != nil {
			t.Fatalf("far[%d] = (%v, %d) holds event (%v, %d) with index %d", i, e.at, e.seq, e.ev.at, e.ev.seq, e.ev.index)
		}
		if i > 0 && e.before(q.far[(i-1)/4]) {
			t.Fatalf("far[%d] sorts before its parent far[%d]", i, (i-1)/4)
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
					ops[i] %= 2 // first half: only Schedule and ScheduleTransient
				} else if ops[i]%5 < 2 {
					ops[i] = 2 // second half: cancel, step and run
				}
			}
		}
		checkQueueOps(t, ops)
	}
}

// FuzzEventQueue lets the fuzzer look for an operation sequence on which
// the queue and the model part ways. The seeds run as ordinary tests.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 0, 1, 3, 0, 3, 0, 3, 0})             // ties, then drain in FIFO order
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 4, 2, 2, 2, 0}) // cancel from the middle of a bucket, then its head
	f.Add([]byte{1, 3, 0, 3, 1, 3, 2, 0, 2, 1, 3, 0, 2, 1, 3, 0}) // transient handles are inert; stale cancel after firing
	// Ring wraparound: fire at slot 768, then queue slots 1280 (bucket 256,
	// past the ring's end), 896 and 792, which must fire in time order.
	f.Add([]byte{0, 180, 3, 0, 0, 176, 0, 160, 0, 140, 3, 0, 3, 0, 3, 0})
	// Wraparound into the window's first word: fire at slot 800 (bit 32 of
	// word 12), run the clock to slot 1312, then queue slot 1792 (bucket
	// 768, bit 0 of word 12) and slot 1320 (bucket 296), due first.
	f.Add([]byte{0, 180, 3, 0, 0, 144, 3, 0, 4, 176, 0, 175, 0, 128, 3, 0, 3, 0})
	// Cancels from both tiers: two far events (134 ms, 16 s) and two near
	// ones (24.6 µs, 4.1 µs); cancel one of each, then the rest fire in order.
	f.Add([]byte{0, 200, 0, 255, 0, 100, 0, 80, 2, 0, 2, 2, 3, 0, 3, 0, 3, 0})
	// A same-instant tie split across the tiers: event 0 at 50.3 ms goes to
	// the far heap; once event 1 fires at 33.6 ms, events 2 and 3, due at
	// the same 50.3 ms, go to the ring. Scheduling order must still win.
	f.Add([]byte{0, 188, 0, 184, 3, 0, 0, 176, 1, 176, 3, 0, 3, 0, 3, 0})
	// Run moves the clock with nothing firing, then past a far event; an
	// event scheduled 16 s on is past the last fired event's window.
	f.Add([]byte{0, 200, 4, 100, 0, 50, 4, 255, 0, 10, 0, 0, 3, 0, 0, 176, 4, 190, 3, 0})
	deep := make([]byte, 0, 512)
	for i := 0; i < 128; i++ { // a deep queue over both tiers, then cancels from all over it between steps
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
