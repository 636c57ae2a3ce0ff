package sim_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/sim"
)

// BenchmarkScheduleAndFire measures raw engine throughput: the cost of
// scheduling and executing one event, the quantity every simulated frame,
// backoff, and timer pays.
func BenchmarkScheduleAndFire(b *testing.B) {
	s := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkDeepQueue measures a queue 4,096 events deep. Every event is
// due within 4.1 ms, so all of them sit in the near tier's ring, tens to a
// bucket.
func BenchmarkDeepQueue(b *testing.B) {
	const depth = 4096
	s := sim.New()
	for i := 0; i < depth; i++ {
		var refill func()
		refill = func() { s.Schedule(time.Duration(i+1)*time.Microsecond, refill) }
		s.Schedule(time.Duration(i)*time.Microsecond, refill)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkQueueMix fires one event of a saturated channel's mix (the
// congested50 workload's) with about 70 pending. Each of 36 stations
// loops through a backoff of DIFS + k·20 µs, a 1 µs carrier-sense hop, an
// airtime of 0.4–2.4 ms with a 2.6 ms ACK timeout armed beside it, and a
// 10 µs turnaround, after which nine ACKs in ten arrive and cancel the
// timeout. Ten 250 ms protocol ticks wait in the far tier.
func BenchmarkQueueMix(b *testing.B) {
	const (
		stations = 36
		ticks    = 10
		difs     = 50 * time.Microsecond
		slot     = 20 * time.Microsecond
	)
	s := sim.New()
	x := uint64(1) // xorshift: a draw costs next to nothing beside the queue
	draw := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := 0; i < stations; i++ {
		var timeout sim.Timer
		var backoff, sense, transmit, airEnd, ack func()
		backoff = func() { s.Schedule(difs+time.Duration(draw(32))*slot, sense) }
		sense = func() { s.Schedule(time.Microsecond, transmit) }
		transmit = func() {
			air := 400*time.Microsecond + time.Duration(draw(2001))*time.Microsecond
			s.Schedule(air, airEnd)
			timeout = s.Schedule(air+2600*time.Microsecond, backoff)
		}
		airEnd = func() { s.Schedule(10*time.Microsecond, ack) }
		ack = func() {
			if draw(10) > 0 {
				timeout.Cancel()
				backoff()
			}
		}
		backoff()
	}
	for i := 0; i < ticks; i++ {
		var tick func()
		tick = func() { s.Schedule(250*time.Millisecond, tick) }
		s.Schedule(time.Duration(i)*25*time.Millisecond, tick)
	}
	for i := 0; i < 100_000; i++ { // reach the steady mix and warm the pool
		s.Step()
	}
	pending := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		pending += s.Pending()
	}
	b.ReportMetric(float64(pending)/float64(b.N), "pending")
}

// BenchmarkCancel measures event cancellation (route timers are cancelled
// far more often than they fire).
func BenchmarkCancel(b *testing.B) {
	s := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(time.Hour, func() {})
		ev.Cancel()
	}
}

// BenchmarkScheduleTransient proves the unboxed transient path: a pointer
// payload plus a scalar argument schedule and fire at 0 allocs/op once
// the event pool is warm.
func BenchmarkScheduleTransient(b *testing.B) {
	s := sim.New()
	fn := func(any, uint64) {}
	payload := new(int)
	s.ScheduleTransient(0, fn, payload, 1)
	s.RunAll() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleTransient(time.Microsecond, fn, payload, uint64(i))
		s.Step()
	}
}
