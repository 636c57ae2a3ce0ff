package radio_test

import (
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/sim"
)

// rig builds a medium over static node positions and records deliveries.
type rig struct {
	s        *sim.Simulator
	m        *radio.Medium
	received map[int][]any // node → payloads decoded
}

func newRig(pts []mobility.Point) *rig {
	s := sim.New()
	r := &rig{
		s:        s,
		m:        radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig()),
		received: make(map[int][]any),
	}
	for i := range pts {
		i := i
		r.m.Attach(i, func(_ int, payload any) {
			r.received[i] = append(r.received[i], payload)
		})
	}
	return r
}

func TestDeliveryWithinRange(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 600}})
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, "hello") })
	r.s.RunAll()

	if len(r.received[1]) != 1 || r.received[1][0] != "hello" {
		t.Fatalf("node 1 (200 m away) received %v, want [hello]", r.received[1])
	}
	if len(r.received[2]) != 0 {
		t.Fatalf("node 2 (600 m away, beyond CS range) received %v", r.received[2])
	}
}

func TestConcurrentTransmissionsCollide(t *testing.T) {
	// Nodes 0 and 2 both in range of node 1; simultaneous frames collide.
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 400}})
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, "a") })
	r.s.Schedule(0, func() { r.m.Transmit(2, 1000, "b") })
	r.s.RunAll()

	if len(r.received[1]) != 0 {
		t.Fatalf("node 1 decoded %v during a collision", r.received[1])
	}
	if r.m.Corrupted == 0 {
		t.Fatal("collision not recorded in Corrupted counter")
	}
}

func TestPartialOverlapCollides(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 400}})
	// Second transmission starts halfway through the first (1000 bits at
	// 2 Mb/s = 500 µs airtime).
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, "a") })
	r.s.Schedule(250*time.Microsecond, func() { r.m.Transmit(2, 1000, "b") })
	r.s.RunAll()

	if len(r.received[1]) != 0 {
		t.Fatalf("node 1 decoded %v despite overlapping signals", r.received[1])
	}
}

func TestSequentialTransmissionsBothDecode(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, "first") })
	r.s.Schedule(time.Millisecond, func() { r.m.Transmit(0, 1000, "second") })
	r.s.RunAll()

	if len(r.received[1]) != 2 {
		t.Fatalf("node 1 received %d frames, want 2", len(r.received[1]))
	}
}

func TestHiddenTerminalInterference(t *testing.T) {
	// 0 and 2 are 800 m apart (out of each other's CS range via default
	// 550 m) but node 1 sits between them: classic hidden terminals.
	r := newRig([]mobility.Point{{X: 0}, {X: 400}, {X: 800}})
	if r.m.Busy(2) {
		t.Fatal("node 2 busy before any transmission")
	}
	r.s.Schedule(0, func() {
		r.m.Transmit(0, 4000, "a")
		if r.m.Busy(2) {
			t.Error("node 2 senses node 0's signal from 800 m")
		}
	})
	r.s.Schedule(100*time.Microsecond, func() { r.m.Transmit(2, 4000, "b") })
	r.s.RunAll()

	if len(r.received[1]) != 0 {
		t.Fatalf("victim decoded %v despite hidden-terminal collision", r.received[1])
	}
}

func TestReceivingWhileTransmittingLosesFrame(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	// Node 1 starts transmitting shortly after node 0; node 1 cannot
	// decode node 0's frame.
	r.s.Schedule(0, func() { r.m.Transmit(0, 4000, "from0") })
	r.s.Schedule(50*time.Microsecond, func() { r.m.Transmit(1, 400, "from1") })
	r.s.RunAll()

	for _, p := range r.received[1] {
		if p == "from0" {
			t.Fatal("node 1 decoded a frame that arrived while it was transmitting")
		}
	}
}

func TestBusyDuringTransmission(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	r.s.Schedule(0, func() {
		r.m.Transmit(0, 2000, "x") // 1 ms airtime at 2 Mb/s
	})
	r.s.Schedule(500*time.Microsecond, func() {
		if !r.m.Busy(0) {
			t.Error("sender not busy during its own transmission")
		}
		if !r.m.Busy(1) {
			t.Error("receiver not busy mid-reception")
		}
	})
	r.s.Schedule(2*time.Millisecond, func() {
		if r.m.Busy(0) || r.m.Busy(1) {
			t.Error("channel still busy after the frame ended")
		}
	})
	r.s.RunAll()
}

// idleFunc adapts a func to the IdleWaiter interface for tests.
type idleFunc func(u uint64)

func (f idleFunc) ChannelIdle(u uint64) { f(u) }

func TestNotifyIdleFiresWhenChannelClears(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	var idleAt time.Duration
	r.s.Schedule(0, func() { r.m.Transmit(0, 2000, "x") })
	// Register once the signal has propagated and the channel is busy.
	r.s.Schedule(10*time.Microsecond, func() {
		if !r.m.Busy(1) {
			t.Error("channel not busy 10µs into a 1ms frame")
		}
		r.m.NotifyIdle(1, idleFunc(func(uint64) { idleAt = r.s.Now() }), 0)
	})
	r.s.RunAll()

	want := time.Millisecond + time.Microsecond // airtime + propagation
	if idleAt != want {
		t.Fatalf("idle callback at %v, want %v", idleAt, want)
	}
}

func TestNotifyIdleImmediateWhenIdle(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	fired := false
	seen := uint64(0)
	r.m.NotifyIdle(0, idleFunc(func(u uint64) { fired = true; seen = u }), 7)
	r.s.RunAll()
	if !fired {
		t.Fatal("NotifyIdle on an idle channel never fired")
	}
	if seen != 7 {
		t.Fatalf("idle callback saw u=%d, want the registered scalar 7", seen)
	}
}

func TestAirTime(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}})
	if got := r.m.AirTime(2_000_000); got != time.Second {
		t.Fatalf("AirTime(2Mb) = %v, want 1s at 2 Mb/s", got)
	}
	if got := r.m.AirTime(1000); got != 500*time.Microsecond {
		t.Fatalf("AirTime(1000 bits) = %v, want 500µs", got)
	}
}

// TestNeighborsAndInRange: on the 275 m unit disk a frame from node 0
// is decoded at 200 m and not at 400 m, and NeighborsAppend lists the
// mutual links the oracle finds.
func TestNeighborsAndInRange(t *testing.T) {
	pts := []mobility.Point{{X: 0}, {X: 200}, {X: 400}, {X: 1000}}
	r := newRig(pts)
	r.m.Transmit(0, 1000, "x")
	r.s.RunAll()
	if len(r.received[1]) != 1 || len(r.received[2]) != 0 {
		t.Fatalf("node 1 (200 m) decoded %v, node 2 (400 m) %v: wrong for the 275 m unit disk", r.received[1], r.received[2])
	}
	if n := r.m.NeighborsAppend(1, nil); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("NeighborsAppend(1) = %v, want [0 2]", n)
	}
	oracle := mobility.NewStatic(pts)
	for id := range pts {
		inRange, _ := oracleSets(oracle, radio.DefaultConfig(), id, 0)
		var want []int
		for v := range pts {
			if inRange[v] {
				want = append(want, v)
			}
		}
		if got := r.m.NeighborsAppend(id, nil); !slices.Equal(got, want) {
			t.Errorf("NeighborsAppend(%d) = %v, oracle %v", id, got, want)
		}
	}
}
