package mac_test

import (
	"testing"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// TestMACEnqueueDequeueZeroAllocsWhenWarm pins the steady-state cost of a
// full unicast cycle — enqueue, DIFS/backoff, transmission, ACK, release —
// at zero heap allocations once the run-local pools are warm. A regression
// here means a pooled object (event, air frame, payload) started escaping
// again.
func TestMACEnqueueDequeueZeroAllocsWhenWarm(t *testing.T) {
	s := sim.New()
	medium := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 200}}), radio.DefaultConfig())
	root := rng.New(7)
	deliver := func(int, *mac.Frame) {}
	sender := mac.New(0, s, medium, mac.DefaultConfig(), root.Split("a"), deliver)
	mac.New(1, s, medium, mac.DefaultConfig(), root.Split("b"), deliver)

	f := &mac.Frame{}
	cycle := func() {
		*f = mac.Frame{To: 1, Bytes: 256}
		sender.Send(f)
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the event and air-frame pools
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm MAC unicast cycle allocates %.1f per op, want 0", avg)
	}
}

// TestMACBroadcastAllocsWhenWarm does the same for the broadcast path
// (no ACK, fixed done-timer), which the protocols' flood traffic rides.
func TestMACBroadcastAllocsWhenWarm(t *testing.T) {
	s := sim.New()
	medium := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 200}}), radio.DefaultConfig())
	root := rng.New(9)
	deliver := func(int, *mac.Frame) {}
	sender := mac.New(0, s, medium, mac.DefaultConfig(), root.Split("a"), deliver)
	mac.New(1, s, medium, mac.DefaultConfig(), root.Split("b"), deliver)

	f := &mac.Frame{}
	cycle := func() {
		*f = mac.Frame{To: mac.BroadcastAddr, Bytes: 128}
		sender.Send(f)
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm MAC broadcast cycle allocates %.1f per op, want 0", avg)
	}
}

// TestMACRTSCTSZeroAllocsWhenWarm does the same for a unicast behind an
// RTS/CTS handshake: the CTS's answer, the data a SIFS later, is a
// package-level continuation like every other.
func TestMACRTSCTSZeroAllocsWhenWarm(t *testing.T) {
	s := sim.New()
	medium := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 200}}), radio.DefaultConfig())
	root := rng.New(8)
	deliver := func(int, *mac.Frame) {}
	cfg := mac.Config{RTSCTSEnabled: true}
	sender := mac.New(0, s, medium, cfg, root.Split("a"), deliver)
	mac.New(1, s, medium, cfg, root.Split("b"), deliver)

	f := &mac.Frame{}
	cycle := func() {
		*f = mac.Frame{To: 1, Bytes: 256}
		sender.Send(f)
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm RTS/CTS unicast cycle allocates %.1f per op, want 0", avg)
	}
	if st := sender.Stats(); st.RTSSent < 264 || st.Acked < 264 {
		t.Fatalf("stats %+v: want every cycle an RTS and an ACK", st)
	}
}

func BenchmarkMACUnicastCycle(b *testing.B) {
	s := sim.New()
	medium := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 200}}), radio.DefaultConfig())
	root := rng.New(7)
	deliver := func(int, *mac.Frame) {}
	sender := mac.New(0, s, medium, mac.DefaultConfig(), root.Split("a"), deliver)
	mac.New(1, s, medium, mac.DefaultConfig(), root.Split("b"), deliver)
	f := &mac.Frame{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*f = mac.Frame{To: 1, Bytes: 256}
		sender.Send(f)
		s.RunAll()
	}
}
