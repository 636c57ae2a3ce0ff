// Package sim implements a deterministic discrete-event simulator.
//
// The simulator maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which —
// together with the seeded streams in package rng — makes every run fully
// reproducible from its scenario seed. The queue has two tiers (see
// eventQueue): events due within about 33 ms of the last one fired sit in
// a ring of time buckets, each a list sorted by (time, sequence), and
// later ones in a 4-ary heap on the same key. That key is a total order,
// so the firing order does not depend on which tier holds an event.
//
// The engine is intentionally single-threaded: all protocol, MAC, and radio
// code runs inside event callbacks on one goroutine. No locking is needed
// anywhere in the simulation path.
//
// Every event object is recycled through a run-local free list
// (internal/runpool) the moment it fires or is cancelled, so the steady
// state of a warm run schedules events without allocating. Callers never
// hold *Event pointers: Schedule and At return a generation-stamped Timer
// handle whose Cancel and Pending become no-ops once the underlying event
// has fired and been reissued, making a stale handle harmless rather than
// a use-after-recycle bug.
package sim

import (
	"sync/atomic"
	"time"

	"github.com/manetlab/ldr/internal/runpool"
)

// Event is a scheduled callback. Event objects are owned and recycled by
// the Simulator; callers interact with them only through Timer handles.
type Event struct {
	at  time.Duration
	seq uint64
	gen uint32 // bumped on every recycle; Timer handles snapshot it
	fn  func()

	// Argument-style callback used by the transient path. Carrying both an
	// interface payload and a scalar lets hot callers pass a pointer and a
	// small integer (epoch, node id) without boxing either.
	afn func(any, uint64)
	arg any
	u   uint64

	index int    // position in the far heap, inRing, or notQueued
	prev  *Event // neighbours in a ring bucket's list
	next  *Event
	owner *Simulator // simulator holding the event while queued
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and refers to nothing: Cancel is a no-op and Pending reports
// false. Handles are generation-checked, so holding one past its event's
// firing is safe — the recycled event cannot be cancelled by mistake.
type Timer struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the timer's event is still scheduled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index != notQueued
}

// Time returns the virtual time at which the event fires, or zero if the
// timer is no longer pending.
func (t Timer) Time() time.Duration {
	if !t.Pending() {
		return 0
	}
	return t.ev.at
}

// Cancel removes the event from the queue and recycles it. Cancelling an
// event that has already fired, been cancelled, or was never scheduled is
// a no-op.
func (t Timer) Cancel() {
	if !t.Pending() {
		return
	}
	s := t.ev.owner
	s.queue.remove(t.ev)
	s.recycle(t.ev)
}

// Simulator is a discrete-event simulation engine.
type Simulator struct {
	now    time.Duration
	queue  eventQueue
	seq    uint64
	fired  uint64
	halted bool
	pool   runpool.Pool[Event] // recycled events, transient and timed alike

	// interrupted is the only cross-goroutine door into the engine: other
	// goroutines (signal handlers, sweep watchdogs) may set it at any time,
	// and the run loop checks it between events. Everything else on the
	// struct stays single-threaded.
	interrupted atomic.Bool
}

// New returns a simulator with its clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// EventsFired returns the number of events executed so far, a cheap
// progress/cost measure for benchmarks.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// get pops a pooled event (or allocates one) and stamps it for queueing.
func (s *Simulator) get(at time.Duration) *Event {
	s.seq++
	ev := s.pool.Get()
	ev.at = at
	ev.seq = s.seq
	ev.owner = s
	return ev
}

// recycle releases an event's callback and returns it to the pool. The
// generation bump invalidates every outstanding Timer handle.
func (s *Simulator) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.u = 0
	ev.owner = nil
	s.pool.Put(ev)
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (fire as soon as possible, after already-queued events
// at the current instant).
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an
// error in the caller; the event is clamped to the current instant so the
// clock never runs backwards.
func (s *Simulator) At(t time.Duration, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	ev := s.get(t)
	ev.fn = fn
	s.queue.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Every runs fn at absolute time start and then every interval, stopping
// once the next firing would pass until. The chain self-schedules, so it
// costs one queued event at a time regardless of how many ticks remain —
// and, unlike pre-scheduling the whole series, it cannot keep a drained
// queue alive past the last tick. Periodic instruments (fault injectors,
// invariant auditors) are the intended callers. A non-positive interval
// or start > until schedules nothing.
func (s *Simulator) Every(start, interval, until time.Duration, fn func()) {
	if interval <= 0 || start > until {
		return
	}
	var tick func()
	tick = func() {
		fn()
		if next := s.now + interval; next <= until {
			s.At(next, tick)
		}
	}
	s.At(start, tick)
}

// ScheduleTransient runs fn(arg, u) after delay of virtual time, like
// Schedule, but returns no handle: the event cannot be cancelled or
// observed. Because no Timer escapes, there is nothing for the caller to
// misuse and the event struct is recycled the moment it fires, so
// high-frequency callers (the radio schedules three of these per frame)
// pay no per-call allocation once the pool is warm.
//
// The payload is split in two on purpose: arg carries a pointer without
// allocating, and u carries a small scalar (an epoch, a node index)
// without the interface boxing that putting an int in arg would cost.
func (s *Simulator) ScheduleTransient(delay time.Duration, fn func(any, uint64), arg any, u uint64) {
	if delay < 0 {
		delay = 0
	}
	ev := s.get(s.now + delay)
	ev.afn = fn
	ev.arg = arg
	ev.u = u
	s.queue.push(ev)
}

// Step executes the next event, advancing the clock. It returns false if
// the queue is empty or the simulator has been halted.
func (s *Simulator) Step() bool {
	if s.halted {
		return false
	}
	ev := s.queue.min()
	if ev == nil {
		return false
	}
	s.fire(ev)
	return true
}

// fire takes ev, the earliest queued event, off the queue and runs it.
func (s *Simulator) fire(ev *Event) {
	s.queue.take(ev)
	s.now = ev.at
	s.fired++
	// Copy the callback out and recycle before invoking: a fired event
	// must not pin its closure, and the callback may only schedule new
	// events — it can never reach the recycled struct because no *Event
	// escapes and the generation bump killed every Timer handle.
	fn, afn, arg, u := ev.fn, ev.afn, ev.arg, ev.u
	s.recycle(ev)
	if fn != nil {
		fn()
	} else if afn != nil {
		afn(arg, u)
	}
}

// Run executes events until the clock would pass `until`, the queue
// drains, Halt is called, or Interrupt is observed. Events scheduled
// exactly at `until` still fire. The clock is left at min(until, time of
// last event) — or wherever the last event left it if the run was
// interrupted, so partial metrics report the virtual time they cover.
func (s *Simulator) Run(until time.Duration) {
	for !s.halted && !s.interrupted.Load() {
		ev := s.queue.min()
		if ev == nil || ev.at > until {
			break
		}
		s.fire(ev)
	}
	if s.interrupted.Load() {
		return
	}
	// Only ever forwards: a deadline already behind the clock leaves it be.
	if s.now < until {
		s.now = until
	}
}

// RunAll executes events until the queue drains, Halt is called, or
// Interrupt is observed.
func (s *Simulator) RunAll() {
	for !s.interrupted.Load() && s.Step() {
	}
}

// Halt stops the run loop after the current event returns. Subsequent
// Step and Run calls do nothing until Resume is called.
func (s *Simulator) Halt() { s.halted = true }

// Resume clears a Halt.
func (s *Simulator) Resume() { s.halted = false }

// Interrupt asks the run loop to stop at the next event boundary. Unlike
// Halt it is safe to call from any goroutine — signal handlers and sweep
// watchdogs use it to end a run cooperatively without tearing shared
// state. The current event always finishes; no event is cut in half.
func (s *Simulator) Interrupt() { s.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called. Safe for
// concurrent use.
func (s *Simulator) Interrupted() bool { return s.interrupted.Load() }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return s.queue.near + len(s.queue.far) }
