package sim_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/ldr/internal/sim"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := sim.New()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d
		s.Schedule(d, func() { got = append(got, d) })
	}
	s.RunAll()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := sim.New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := sim.New()
	var at time.Duration
	s.Schedule(7*time.Second, func() { at = s.Now() })
	s.RunAll()
	if at != 7*time.Second {
		t.Fatalf("Now() inside event = %v, want 7s", at)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	s := sim.New()
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(3*time.Second, func() { fired++ })
	s.Run(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (second event is past the deadline)", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want exactly the deadline", s.Now())
	}
	s.Run(5 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d after second Run, want 2", fired)
	}
}

// TestRunNeverMovesClockBackwards: a deadline already behind the clock is a
// no-op even while a later event is still queued (that branch used to set
// the clock to the deadline unconditionally).
func TestRunNeverMovesClockBackwards(t *testing.T) {
	s := sim.New()
	s.Schedule(20*time.Second, func() {})
	s.Run(10 * time.Second)
	s.Run(5 * time.Second)
	if s.Now() != 10*time.Second {
		t.Fatalf("clock = %v after Run(10s), Run(5s); want 10s", s.Now())
	}
	s.RunAll()
	s.Run(5 * time.Second)
	if s.Now() != 20*time.Second {
		t.Fatalf("clock = %v after draining and Run(5s); want 20s", s.Now())
	}
}

func TestRunIncludesEventsExactlyAtDeadline(t *testing.T) {
	s := sim.New()
	fired := false
	s.Schedule(2*time.Second, func() { fired = true })
	s.Run(2 * time.Second)
	if !fired {
		t.Fatal("event exactly at the deadline did not fire")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := sim.New()
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("freshly scheduled event is not pending")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	ev.Cancel() // double-cancel must be a no-op
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	s := sim.New()
	fired := false
	later := s.Schedule(2*time.Second, func() { fired = true })
	s.Schedule(time.Second, func() { later.Cancel() })
	s.RunAll()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := sim.New()
	s.Schedule(time.Second, func() {
		s.Schedule(-5*time.Second, func() {
			if s.Now() != time.Second {
				t.Fatalf("negative delay fired at %v, want clamp to 1s", s.Now())
			}
		})
	})
	s.RunAll()
}

// TestInterruptStopsRun: an event that interrupts the simulator is the
// last one Run and RunAll fire, and the clock stays at it.
func TestInterruptStopsRun(t *testing.T) {
	s := sim.New()
	fired := 0
	s.Schedule(1, func() { fired++; s.Interrupt() })
	s.Schedule(2, func() { fired++ })
	s.Run(time.Second)
	s.RunAll()
	if fired != 1 || s.Now() != 1 || !s.Interrupted() {
		t.Fatalf("fired = %d at %v, interrupted %v; want 1 at 1ns, interrupted", fired, s.Now(), s.Interrupted())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := sim.New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(time.Millisecond, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunAll()
	if depth != 100 {
		t.Fatalf("chained scheduling reached depth %d, want 100", depth)
	}
	if want := uint64(100); s.EventsFired() != want {
		t.Fatalf("EventsFired = %d, want %d", s.EventsFired(), want)
	}
}

// TestRandomScheduleIsChronological is a property test: any batch of
// random delays fires in non-decreasing time order, with FIFO ties.
func TestRandomScheduleIsChronological(t *testing.T) {
	f := func(delays []uint16) bool {
		s := sim.New()
		type firing struct {
			at  time.Duration
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i, at := i, time.Duration(d)*time.Millisecond
			s.Schedule(at, func() { fired = append(fired, firing{at: s.Now(), seq: i}) })
		}
		s.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false // FIFO violated for ties
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
