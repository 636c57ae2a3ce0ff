package sim

import (
	"testing"
	"time"
)

// White-box tests for the event free list, Timer generation checks, and
// callback-release semantics.

func TestCancelRecyclesEvent(t *testing.T) {
	s := New()
	fired := false
	ev := s.Schedule(time.Hour, func() { fired = true })
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	if s.pool.Len() != 1 {
		t.Fatalf("free list has %d events after Cancel, want 1", s.pool.Len())
	}
	ev.Cancel() // double-cancel is a no-op
	if s.pool.Len() != 1 {
		t.Fatal("double-cancel recycled the event twice")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestFiredEventIsRecycledAndReleased(t *testing.T) {
	s := New()
	s.Schedule(0, func() {})
	s.RunAll()
	if s.pool.Len() != 1 {
		t.Fatalf("free list has %d events after firing, want 1", s.pool.Len())
	}
	recycled := s.pool.Get() // pop the recycled event to inspect it
	if recycled.fn != nil || recycled.afn != nil || recycled.arg != nil {
		t.Fatal("recycled event still pins its callback")
	}
	s.pool.Put(recycled)
}

// TestStaleTimerIsInert is the generation-check property: a Timer held
// past its event's firing must not be able to cancel (or observe) the
// recycled event after it is reissued to an unrelated caller.
func TestStaleTimerIsInert(t *testing.T) {
	s := New()
	stale := s.Schedule(0, func() {})
	s.RunAll() // fires; event goes back to the pool
	fired := false
	fresh := s.Schedule(time.Second, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("second Schedule did not reuse the pooled event (test setup)")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports the reissued event as its own")
	}
	stale.Cancel() // must not touch the reissued event
	if !fresh.Pending() {
		t.Fatal("stale handle cancelled an unrelated reissued event")
	}
	s.RunAll()
	if !fired {
		t.Fatal("reissued event did not fire")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
	tm.Cancel() // must not panic
	if tm.Time() != 0 {
		t.Fatal("zero Timer has a firing time")
	}
}

func TestTransientEventsAreRecycled(t *testing.T) {
	s := New()
	calls := 0
	fn := func(arg any, u uint64) {
		if arg != "payload" || u != 7 {
			t.Fatalf("arg = %v, u = %d", arg, u)
		}
		calls++
	}
	s.ScheduleTransient(0, fn, "payload", 7)
	s.RunAll()
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if s.pool.Len() != 1 {
		t.Fatalf("free list has %d events, want 1", s.pool.Len())
	}
	recycled := s.pool.Get() // pop the recycled event to inspect it
	if recycled.afn != nil || recycled.arg != nil || recycled.u != 0 {
		t.Fatal("recycled event still pins its callback")
	}
	s.pool.Put(recycled)
	s.ScheduleTransient(0, fn, "payload", 7)
	if s.pool.Len() != 0 {
		t.Fatal("pooled event was not reused")
	}
	if s.queue.min() != recycled {
		t.Fatal("scheduled event is not the pooled one")
	}
	s.RunAll()
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
}

// TestScheduleZeroAllocsWhenWarm guards the pooled schedule/fire cycle:
// with a warm pool, neither Schedule nor firing may allocate.
func TestScheduleZeroAllocsWhenWarm(t *testing.T) {
	s := New()
	fn := func() {}
	s.Schedule(0, fn)
	s.RunAll() // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(0, fn)
		s.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("Schedule allocates %.1f/op with a warm pool", allocs)
	}
}

// TestScheduleAcrossRingZeroAllocsWhenWarm: the ring's buckets are lists
// through the events themselves, so once the pool and the far heap's slice
// are warm, filling every bucket and the far heap allocates nothing.
func TestScheduleAcrossRingZeroAllocsWhenWarm(t *testing.T) {
	s := New()
	fn := func() {}
	fill := func() {
		for k := 0; k <= ringSize; k++ { // k = ringSize is past the horizon
			s.Schedule(time.Duration(k)<<bucketShift, fn)
			s.Schedule(time.Duration(k)<<bucketShift+time.Hour, fn).Cancel()
		}
	}
	fill()
	for i, w := range s.queue.ring.occupied {
		if w != ^uint64(0) {
			t.Fatalf("occupancy word %d = %#x, want every bucket used (test setup)", i, w)
		}
	}
	if len(s.queue.far) != 1 {
		t.Fatalf("far heap holds %d events, want 1 (test setup)", len(s.queue.far))
	}
	s.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		s.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("scheduling into every bucket and the far heap allocates %.1f/op when warm", allocs)
	}
}

var sinkSim *Simulator

// TestNewAllocatesOnlyTheSimulator: a simulator that never schedules —
// the model checker builds one per world — allocates the struct and
// nothing else; the ring comes with the first event.
func TestNewAllocatesOnlyTheSimulator(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		sinkSim = New()
		sinkSim.Run(time.Second)
		sinkSim.Step()
	})
	if allocs != 1 {
		t.Fatalf("New plus a run with nothing queued allocates %.1f/op, want 1", allocs)
	}
	if sinkSim.queue.ring != nil {
		t.Fatal("a simulator that never scheduled has a ring")
	}
}

// TestCancelZeroAllocsWhenWarm guards the schedule/cancel cycle (route
// timers are cancelled far more often than they fire).
func TestCancelZeroAllocsWhenWarm(t *testing.T) {
	s := New()
	fn := func() {}
	s.Schedule(0, fn).Cancel()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Hour, fn).Cancel()
	})
	if allocs > 0 {
		t.Fatalf("Schedule+Cancel allocates %.1f/op with a warm pool", allocs)
	}
}

// TestTransientZeroAllocsWhenWarm guards the no-boxing contract: a
// pointer payload in arg plus a scalar in u must not allocate.
func TestTransientZeroAllocsWhenWarm(t *testing.T) {
	s := New()
	fn := func(any, uint64) {}
	payload := new(int)
	s.ScheduleTransient(0, fn, payload, 1)
	s.RunAll() // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleTransient(0, fn, payload, 42)
		s.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("ScheduleTransient allocates %.1f/op with a warm pool", allocs)
	}
}

func TestTransientOrderingMatchesSchedule(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(time.Millisecond, func() { order = append(order, 1) })
	s.ScheduleTransient(time.Millisecond, func(any, uint64) { order = append(order, 2) }, nil, 0)
	s.Schedule(time.Millisecond, func() { order = append(order, 3) })
	s.ScheduleTransient(0, func(any, uint64) { order = append(order, 0) }, nil, 0)
	s.RunAll()
	for i, v := range order {
		if i != v {
			t.Fatalf("firing order = %v, want scheduling order within an instant", order)
		}
	}
}

func TestTransientNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.ScheduleTransient(-time.Second, func(any, uint64) { fired = true }, nil, 0)
	if s.queue.min().at != 0 {
		t.Fatal("negative delay not clamped to now")
	}
	s.RunAll()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}
