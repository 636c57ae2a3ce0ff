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
			s.ScheduleTransient(time.Duration(j)*time.Microsecond, burstTransmit, m, uint64((base+j)%100))
		}
		s.RunAll()
	}
}

// burstTransmit sends BenchmarkTransmitBurst's frame from node u.
func burstTransmit(arg any, u uint64) { arg.(*radio.Medium).Transmit(int(u), 4096, nil) }

// unicast is a payload that names the node it is for.
type unicast int

func (u unicast) Addressee() int { return int(u) }

// benchTransmitAddressed is BenchmarkTransmit with every frame a unicast
// to a node that could decode its sender when the run began, as a MAC's
// data frames and ACKs are: the other clean receptions end unseen.
func benchTransmitAddressed(b *testing.B, n int) {
	s, m := benchMedium(n)
	payloads := make([]any, n) // boxed once, so sending one allocates nothing
	for i := range payloads {
		to := (i + 1) % n
		if near := m.ReachableFrom(i); len(near) > 0 {
			to = near[len(near)/2]
		}
		payloads[i] = unicast(to)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transmit(i%n, 4096+512*8, payloads[i%n])
		s.RunAll()
	}
}

func BenchmarkTransmitAddressed(b *testing.B)   { benchTransmitAddressed(b, 100) }
func BenchmarkTransmitAddressed50(b *testing.B) { benchTransmitAddressed(b, 50) }

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
