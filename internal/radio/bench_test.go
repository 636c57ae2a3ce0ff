package radio_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// benchMedium builds an n-node random-waypoint medium on the paper's
// terrain for that many nodes (speeds 1–20 m/s, constant motion), with
// every node attached.
func benchMedium(n int) (*sim.Simulator, *radio.Medium) {
	s := sim.New()
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	if n > 50 {
		terrain = mobility.Terrain{Width: 2200, Height: 600}
	}
	model := mobility.NewWaypoint(n, mobility.WaypointConfig{Terrain: terrain, MinSpeed: 1, MaxSpeed: 20}, rng.New(1))
	m := radio.New(s, model, radio.DefaultConfig())
	for i := 0; i < n; i++ {
		m.Attach(i, func(int, any) {})
	}
	return s, m
}

// BenchmarkTransmit measures one frame put on the air and fully delivered
// (receiver-set computation plus the signal start/end events), the radio
// hot path every MAC transmission pays.
func BenchmarkTransmit(b *testing.B) {
	s, m := benchMedium(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transmit(i%100, 4096+512*8, nil)
		s.RunAll()
	}
}

// BenchmarkTransmitBurst measures overlapping transmissions (the
// contention regime): eight senders put frames on the air in the same
// microsecond window before the queue drains.
func BenchmarkTransmitBurst(b *testing.B) {
	s, m := benchMedium(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := i * 8
		for j := 0; j < 8; j++ {
			src := (base + j) % 100
			s.Schedule(time.Duration(j)*time.Microsecond, func() {
				m.Transmit(src, 4096, nil)
			})
		}
		s.RunAll()
	}
}

// BenchmarkNeighbors measures the observability helper with a
// caller-provided buffer (allocs/op should be zero once warm).
func BenchmarkNeighbors(b *testing.B) {
	s, m := benchMedium(100)
	_ = s
	b.ReportAllocs()
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = m.NeighborsAppend(i%100, buf[:0])
	}
}

// BenchmarkTransmit50 is BenchmarkTransmit on the paper's 50-node strip.
func BenchmarkTransmit50(b *testing.B) {
	s, m := benchMedium(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transmit(i%50, 4096+512*8, nil)
		s.RunAll()
	}
}
