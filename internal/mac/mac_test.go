package mac_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// rig wires n MACs over static positions and records deliveries.
type rig struct {
	s        *sim.Simulator
	medium   *radio.Medium
	macs     []*mac.MAC
	received map[int][]*mac.Frame
}

func newRig(pts []mobility.Point) *rig {
	s := sim.New()
	r := &rig{
		s:        s,
		medium:   radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig()),
		received: make(map[int][]*mac.Frame),
	}
	root := rng.New(99)
	for i := range pts {
		i := i
		m := mac.New(i, s, r.medium, mac.DefaultConfig(), root.Split("mac"+string(rune('a'+i))),
			func(_ int, f *mac.Frame) {
				r.received[i] = append(r.received[i], f)
			})
		r.macs = append(r.macs, m)
	}
	return r
}

// recorder is the tests' mac.FrameHandler: it counts one or more frames'
// completion events and notes when the last one was sent.
type recorder struct {
	s                      *sim.Simulator
	sent, failed, released int
	sentAt                 time.Duration
}

func (r *recorder) FrameSent(*mac.Frame)     { r.sent++; r.sentAt = r.s.Now() }
func (r *recorder) FrameFailed(*mac.Frame)   { r.failed++ }
func (r *recorder) FrameReleased(*mac.Frame) { r.released++ }

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}, {X: 900}})
	rec := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: mac.BroadcastAddr, Bytes: 100, Payload: "bc", Handler: rec})
	})
	r.s.RunAll()

	if rec.sent != 1 || rec.failed != 0 || rec.released != 1 {
		t.Fatalf("broadcast completion events = %+v, want one FrameSent then one FrameReleased", *rec)
	}
	for _, id := range []int{1, 2} {
		if len(r.received[id]) != 1 {
			t.Fatalf("node %d received %d frames, want 1", id, len(r.received[id]))
		}
	}
	if len(r.received[3]) != 0 {
		t.Fatal("out-of-range node received the broadcast")
	}
}

func TestUnicastAckedAndDelivered(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}})
	rec := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: "uni", Handler: rec})
	})
	r.s.RunAll()

	if rec.sent != 1 || rec.failed != 0 || rec.released != 1 {
		t.Fatalf("acknowledged unicast completion events = %+v, want one FrameSent, no FrameFailed", *rec)
	}
	if len(r.received[1]) != 1 || r.received[1][0].Payload != "uni" {
		t.Fatalf("destination received %v", r.received[1])
	}
	if len(r.received[2]) != 0 {
		t.Fatal("unicast delivered to a non-addressee")
	}
	st := r.macs[0].Stats()
	if st.Acked != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnicastToAbsentNodeFails(t *testing.T) {
	// Node 1 exists but is out of range: no ACK can ever come back.
	r := newRig([]mobility.Point{{X: 0}, {X: 5000}})
	rec := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: "lost", Handler: rec})
	})
	r.s.RunAll()

	if rec.failed != 1 || rec.sent != 0 || rec.released != 1 {
		t.Fatalf("unreachable unicast completion events = %+v, want one FrameFailed, no FrameSent", *rec)
	}
	st := r.macs[0].Stats()
	wantAttempts := uint64(mac.RetryLimit + 1)
	if st.Sent != wantAttempts {
		t.Fatalf("sent %d attempts, want %d (retry limit + 1)", st.Sent, wantAttempts)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 5000}})
	rec := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		for i := 0; i < mac.QueueCap+10; i++ {
			r.macs[0].Send(&mac.Frame{To: 1, Bytes: 100, Payload: i, Handler: rec})
		}
	})
	r.s.Run(time.Second)
	if r.macs[0].Stats().QueueDrops != 10 {
		t.Fatalf("queue drops = %d, want 10", r.macs[0].Stats().QueueDrops)
	}
	if rec.failed < 10 {
		t.Fatalf("FrameFailed fired %d times, want ≥ 10 immediate drops", rec.failed)
	}
}

func TestFramesDeliveredInOrder(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}})
	r.s.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			r.macs[0].Send(&mac.Frame{To: 1, Bytes: 64, Payload: i})
		}
	})
	r.s.RunAll()

	if len(r.received[1]) != 20 {
		t.Fatalf("received %d frames, want 20", len(r.received[1]))
	}
	for i, f := range r.received[1] {
		if f.Payload != i {
			t.Fatalf("frame %d carried payload %v (reordered?)", i, f.Payload)
		}
	}
}

func TestContendingSendersAllSucceed(t *testing.T) {
	// Three nodes in mutual range all unicast to node 0 simultaneously;
	// CSMA/CA with backoff must eventually deliver all frames.
	r := newRig([]mobility.Point{{X: 0}, {X: 150}, {X: 200, Y: 100}, {X: 100, Y: 150}})
	r.s.Schedule(0, func() {
		for src := 1; src <= 3; src++ {
			for k := 0; k < 5; k++ {
				r.macs[src].Send(&mac.Frame{To: 0, Bytes: 512, Payload: src*100 + k})
			}
		}
	})
	r.s.RunAll()

	if len(r.received[0]) != 15 {
		t.Fatalf("delivered %d of 15 frames under contention", len(r.received[0]))
	}
}

func TestDuplicateSuppressionOnAckLoss(t *testing.T) {
	// A long run of unicast traffic across a lossy (hidden-terminal)
	// topology: receivers must never deliver the same frame twice.
	r := newRig([]mobility.Point{{X: 0}, {X: 400}, {X: 800}})
	r.s.Schedule(0, func() {
		for k := 0; k < 30; k++ {
			r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: k})
			r.macs[2].Send(&mac.Frame{To: 1, Bytes: 512, Payload: 1000 + k})
		}
	})
	r.s.RunAll()

	seen := make(map[any]int)
	for _, f := range r.received[1] {
		seen[f.Payload]++
		if seen[f.Payload] > 1 {
			t.Fatalf("payload %v delivered twice", f.Payload)
		}
	}
}
