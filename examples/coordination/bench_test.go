// Coordination-cost benchmark: the paper's §1 argument made measurable.
// DUAL (and ROAM) repair a route by synchronizing a diffusing computation
// across the dependent subtree; TORA's link reversal cascades height
// changes across a region; LDR repairs with a purely local decision plus
// at most one expanding-ring discovery. The benchmark breaks the same
// link in the same ring topology under each scheme and reports the
// control actions required.
package main

import (
	"math"
	"testing"
	"time"

	"github.com/manetlab/ldr/examples/coordination/dual"
	"github.com/manetlab/ldr/examples/coordination/tora"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

const coordRingSize = 16

// BenchmarkCoordinationCost reports control messages (or reversal
// operations) needed to repair a broken link adjacent to the destination
// on a 16-node ring.
func BenchmarkCoordinationCost(b *testing.B) {
	b.Run("dual-diffusing", func(b *testing.B) {
		var msgs float64
		for i := 0; i < b.N; i++ {
			s := sim.New()
			nw := dual.NewNetwork(s, coordRingSize, 0, time.Millisecond)
			for j := 0; j < coordRingSize; j++ {
				nw.AddLink(j, (j+1)%coordRingSize, 1)
			}
			s.RunAll()
			before := nw.TotalMessages()
			nw.RemoveLink(0, 1)
			s.RunAll()
			msgs += float64(nw.TotalMessages() - before)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/repair")
	})

	for _, v := range []struct {
		name    string
		variant tora.Variant
	}{
		{"tora-full-reversal", tora.FullReversal},
		{"tora-partial-reversal", tora.PartialReversal},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var reversals float64
			for i := 0; i < b.N; i++ {
				nw := tora.New(coordRingSize, 0, v.variant)
				for j := 0; j < coordRingSize; j++ {
					nw.AddLink(j, (j+1)%coordRingSize)
				}
				nw.Stabilize()
				before := nw.Reversals
				nw.RemoveLink(0, 1)
				nw.Stabilize()
				reversals += float64(nw.Reversals - before)
			}
			b.ReportMetric(reversals/float64(b.N), "reversals/repair")
		})
	}

	b.Run("ldr-local-repair", func(b *testing.B) {
		var msgs float64
		for i := 0; i < b.N; i++ {
			msgs += float64(ldrRingRepairCost(int64(i + 1)))
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/repair")
	})
}

// ldrRingRepairCost runs LDR on a physical ring, breaks the link next to
// the destination mid-run, and returns the control transmissions spent
// after the break (discovery flood + replies + errors).
func ldrRingRepairCost(seed int64) uint64 {
	// Ring of radios: nodes on a circle, 250 m apart along the arc, so
	// each node reaches exactly its two ring neighbors... a polygon with
	// circumradius chosen so the chord to the next node is 250 m and the
	// chord to the second-next exceeds 275 m.
	tracks := make([][]mobility.ScriptLeg, coordRingSize)
	pts := ringPoints(coordRingSize, 250)
	for i, p := range pts {
		tracks[i] = []mobility.ScriptLeg{{At: 0, Pos: p}}
	}
	// Node 1 (the destination's ring neighbor) walks away at t=6 s,
	// breaking the 0–1 arc exactly like RemoveLink(0, 1) above.
	tracks[1] = []mobility.ScriptLeg{
		{At: 0, Pos: pts[1]},
		{At: 6 * time.Second, Pos: pts[1]},
		{At: 8 * time.Second, Pos: mobility.Point{X: pts[1].X, Y: pts[1].Y + 5000}},
	}
	nw := routing.NewNetwork(coordRingSize, mobility.NewScript(tracks),
		radio.DefaultConfig(), mac.DefaultConfig(), seed,
		func(n *routing.Node) routing.Protocol { return core.New(n, core.DefaultConfig()) })
	nw.Start()
	// Node 2 streams to node 0 via node 1 until the break, then around.
	for ts := time.Second; ts < 15*time.Second; ts += 250 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[2].OriginateData(0, 64) })
	}
	var before uint64
	nw.Sim.At(6*time.Second, func() { before = nw.Collector.TotalControlTransmitted() })
	nw.Sim.Run(15 * time.Second)
	return nw.Collector.TotalControlTransmitted() - before
}

// ringPoints places n points on a circle with the given chord length
// between adjacent points.
func ringPoints(n int, chord float64) []mobility.Point {
	// chord = 2R sin(π/n) → R = chord / (2 sin(π/n)).
	radius := chord / (2 * math.Sin(math.Pi/float64(n)))
	pts := make([]mobility.Point, n)
	for i := range pts {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = mobility.Point{
			X: radius + radius*math.Cos(angle),
			Y: radius + radius*math.Sin(angle),
		}
	}
	return pts
}
