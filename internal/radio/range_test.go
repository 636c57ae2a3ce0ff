package radio_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// Range semantics: these property tests compare the medium's observable
// behaviour (who decodes a frame, who senses the channel busy, in which
// order receivers are visited) against an independent brute-force oracle
// computed straight from the mobility model, across random positions,
// exact-boundary placements, mixed transmit-power classes and moving
// nodes. The "Grid" in the test names is the spatial hash the medium once
// filtered candidates with; the names are pinned by the recorded test
// list, the oracle comparison is what they check.

// classRanges resolves node i's transmit/carrier-sense ranges exactly as
// the medium documents: Classes[i % len(Classes)], the one default class
// when the list is empty, with carrier sense clamped to at least the
// decodable range.
func classRanges(cfg radio.Config, i int) (tx, cs float64) {
	tx, cs = radio.DefaultRange, radio.DefaultCSRange
	if len(cfg.Classes) > 0 {
		cl := cfg.Classes[i%len(cfg.Classes)]
		tx, cs = cl.Range, cl.CSRange
	}
	if cs < tx {
		cs = tx
	}
	return tx, cs
}

// oracleSets computes the in-range (decodable) and carrier-sense sets of
// src from exact model positions at time at, using the transmitter's own
// class ranges (reception is governed by the sender's power, so the sets
// are directional under mixed classes).
func oracleSets(model mobility.Model, cfg radio.Config, src int, at time.Duration) (inRange, senses map[int]bool) {
	inRange = make(map[int]bool)
	senses = make(map[int]bool)
	tx, cs := classRanges(cfg, src)
	p := model.Position(src, at)
	for i := 0; i < model.NumNodes(); i++ {
		if i == src {
			continue
		}
		d := p.Dist(model.Position(i, at))
		if d <= tx {
			inRange[i] = true
		}
		if d <= cs {
			senses[i] = true
		}
	}
	return inRange, senses
}

// checkTransmits drives one transmission per entry of srcs, spaced widely
// enough that frames never overlap, and asserts after each that (a) the
// decoded set equals the oracle's in-range set and (b) the mid-flight
// Busy set equals the oracle's carrier-sense set. model and oracle must
// be two independently constructed but identical mobility models.
func checkTransmits(t *testing.T, model, oracle mobility.Model, cfg radio.Config, srcs []int, gap time.Duration) {
	t.Helper()
	s := sim.New()
	m := radio.New(s, model, cfg)
	n := model.NumNodes()

	decoded := make(map[int]bool)
	for i := 0; i < n; i++ {
		i := i
		m.Attach(i, func(from int, payload any) { decoded[i] = true })
	}

	const bits = 8192 // ≈4 ms airtime at 2 Mb/s, well under gap
	air := m.AirTime(bits)
	if air+radio.PropDelay >= gap {
		t.Fatalf("frames overlap: air %v ≥ gap %v", air, gap)
	}

	for k, src := range srcs {
		k, src := k, src
		at := time.Duration(k) * gap
		s.At(at, func() {
			for i := range decoded {
				delete(decoded, i)
			}
			m.Transmit(src, bits, k)
		})
		// Probe carrier sense mid-flight: just after the signal arrives
		// everywhere (prop delay + 1ns beats the same-instant start events).
		s.At(at+radio.PropDelay+time.Nanosecond, func() {
			_, senses := oracleSets(oracle, cfg, src, at)
			for i := 0; i < n; i++ {
				if i == src {
					if !m.Busy(i) {
						t.Errorf("t=%v src=%d: sender does not sense its own transmission", at, src)
					}
					continue
				}
				if m.Busy(i) != senses[i] {
					t.Errorf("t=%v src=%d: Busy(%d)=%v, oracle carrier-sense says %v",
						at, src, i, m.Busy(i), senses[i])
				}
			}
		})
		// After the frame lands, the decoded set must match the oracle.
		s.At(at+radio.PropDelay+air+time.Nanosecond, func() {
			inRange, _ := oracleSets(oracle, cfg, src, at)
			for i := 0; i < n; i++ {
				if i == src {
					continue
				}
				if decoded[i] != inRange[i] {
					t.Errorf("t=%v src=%d: decoded[%d]=%v, oracle in-range says %v",
						at, src, i, decoded[i], inRange[i])
				}
			}
		})
	}
	s.RunAll()
}

func TestGridMatchesBruteForceRandomStatic(t *testing.T) {
	cfg := radio.DefaultConfig()
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		// Terrain several carrier-sense ranges wide, so most pairs are out
		// of reach and every receiver set is a strict subset.
		pts := make([]mobility.Point, 60)
		for i := range pts {
			pts[i] = mobility.Point{X: r.Float64() * 4000, Y: r.Float64() * 3000}
		}
		srcs := make([]int, 12)
		for i := range srcs {
			srcs[i] = r.Intn(len(pts))
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), cfg, srcs, 100*time.Millisecond)
		})
	}
}

func TestGridMatchesBruteForceBoundaryStraddlers(t *testing.T) {
	cfg := radio.DefaultConfig()
	pitch := radio.DefaultCSRange + 50 // lattice pitch: neighbouring clusters just out of carrier sense
	eps := 1e-9
	// Clusters of nodes a nanometre apart on a lattice, each with receivers
	// placed exactly on, and just outside, the decode and carrier-sense
	// edges: ≤ must include the boundary and nothing beyond it.
	var pts []mobility.Point
	for _, cx := range []float64{0, pitch, 2 * pitch} {
		for _, cy := range []float64{0, pitch} {
			pts = append(pts,
				mobility.Point{X: cx, Y: cy},
				mobility.Point{X: cx - eps, Y: cy},
				mobility.Point{X: cx + eps, Y: cy},
				mobility.Point{X: cx, Y: cy - eps},
				mobility.Point{X: cx, Y: cy + eps},
				mobility.Point{X: cx + radio.DefaultRange, Y: cy},         // exactly decodable
				mobility.Point{X: cx + radio.DefaultCSRange, Y: cy},       // exactly at CS edge
				mobility.Point{X: cx + radio.DefaultCSRange + eps, Y: cy}, // just outside
				mobility.Point{X: cx - radio.DefaultRange/2, Y: cy + 10},  // interior
			)
		}
	}
	srcs := make([]int, 0, len(pts))
	for i := range pts {
		srcs = append(srcs, i)
	}
	checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), cfg, srcs, 100*time.Millisecond)
}

// mixedConfig is the regression geometry for heterogeneous ranges: the
// strongest class transmits far past the weakest. If a receiver set is
// ever cut from the default or a non-maximum range instead of the
// transmitter's own class, the strong class's far receivers go missing
// and these oracle comparisons fail.
func mixedConfig() radio.Config {
	return radio.Config{Classes: []radio.Class{
		{Range: 150, CSRange: 300},
		{Range: 275, CSRange: 550},
		{Range: 450, CSRange: 900},
	}}
}

func TestGridMatchesBruteForceMixedRangesStatic(t *testing.T) {
	cfg := mixedConfig()
	r := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		pts := make([]mobility.Point, 60)
		for i := range pts {
			pts[i] = mobility.Point{X: r.Float64() * 4000, Y: r.Float64() * 3000}
		}
		srcs := make([]int, 12)
		for i := range srcs {
			srcs[i] = r.Intn(len(pts))
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), cfg, srcs, 100*time.Millisecond)
		})
	}
}

func TestGridMatchesBruteForceMixedRangesBoundary(t *testing.T) {
	cfg := mixedConfig()
	pitch := 900.0 + 50 // lattice pitch: just past the strongest class's carrier sense
	eps := 1e-9
	// Near-coincident clusters on a lattice, plus exact-distance receivers
	// at every class's decode and carrier-sense edge. Node ids cycle
	// through classes (i % 3), so sources of all three classes hit the
	// boundary placements.
	var pts []mobility.Point
	for _, cx := range []float64{0, pitch, 2 * pitch} {
		for _, cy := range []float64{0, pitch} {
			pts = append(pts,
				mobility.Point{X: cx, Y: cy},
				mobility.Point{X: cx - eps, Y: cy},
				mobility.Point{X: cx + eps, Y: cy},
				mobility.Point{X: cx + 150, Y: cy}, // weak class decode edge
				mobility.Point{X: cx + 450, Y: cy}, // strong class decode edge
				mobility.Point{X: cx + 550, Y: cy}, // mid class CS edge
				mobility.Point{X: cx + 900, Y: cy}, // strong class CS edge
				mobility.Point{X: cx + 900 + eps, Y: cy},
			)
		}
	}
	srcs := make([]int, 0, len(pts))
	for i := range pts {
		srcs = append(srcs, i)
	}
	checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), cfg, srcs, 100*time.Millisecond)
}

func TestGridMatchesBruteForceMixedRangesMoving(t *testing.T) {
	cfg := mixedConfig()
	for seed := int64(1); seed <= 3; seed++ {
		model, oracle := waypointPair(40, 20, 0, 200+seed)
		r := rng.New(300 + seed)
		srcs := make([]int, 200)
		for i := range srcs {
			srcs[i] = r.Intn(40)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkTransmits(t, model, oracle, cfg, srcs, 500*time.Millisecond)
		})
	}
}

func waypointPair(n int, maxSpeed float64, pause time.Duration, seed int64) (a, b mobility.Model) {
	mk := func() mobility.Model {
		return mobility.NewWaypoint(n, mobility.WaypointConfig{
			Terrain:  mobility.Terrain{Width: 3000, Height: 2400},
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Pause:    pause,
		}, rng.New(seed))
	}
	// Waypoint trajectories are query-pattern invariant (per-node RNG
	// streams), so two identically seeded models stay in lockstep no
	// matter how differently the medium and the oracle query them.
	return mk(), mk()
}

func TestGridMatchesBruteForceMovingNodes(t *testing.T) {
	cfg := radio.DefaultConfig()
	for seed := int64(1); seed <= 4; seed++ {
		model, oracle := waypointPair(40, 20, 0, seed)
		r := rng.New(100 + seed)
		// 240 transmissions spread over 120 s of virtual time: at up to
		// 20 m/s every node drifts in and out of range of the others.
		srcs := make([]int, 240)
		for i := range srcs {
			srcs[i] = r.Intn(40)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkTransmits(t, model, oracle, cfg, srcs, 500*time.Millisecond)
		})
	}
}

// TestReceptionsInAscendingID: a transmission visits its receivers in
// ascending node id, whatever the nodes' history of movement. The order
// is observable — the delivery-fault stream is drawn once per decodable
// reception as the frame ends there — so it has to be a function of the
// scenario alone. Every frame here is heard cleanly (no overlap), so the
// fault hook runs for exactly the oracle's in-range set: with duplication
// on and no delay, each receiver's callback fires once or twice at the
// draw, and the callback sequence per frame must be the in-range set in
// id order.
func TestReceptionsInAscendingID(t *testing.T) {
	cfg := mixedConfig()
	model, oracle := waypointPair(40, 20, 0, 77)
	s := sim.New()
	m := radio.New(s, model, cfg)
	faults := rng.New(5)
	m.SetDeliveryFaults(0, 0.5, 0, faults)

	var visited []int
	for i := 0; i < model.NumNodes(); i++ {
		i := i
		m.Attach(i, func(int, any) { visited = append(visited, i) })
	}
	const bits, gap = 8192, 500 * time.Millisecond
	r := rng.New(78)
	var draws uint64
	for k := 0; k < 240; k++ {
		at, src := time.Duration(k)*gap, r.Intn(40)
		s.At(at, func() {
			visited = visited[:0]
			m.Transmit(src, bits, nil)
		})
		s.At(at+gap/2, func() {
			inRange, _ := oracleSets(oracle, cfg, src, at)
			var want []int
			for i := 0; i < model.NumNodes(); i++ {
				if inRange[i] {
					want = append(want, i)
				}
			}
			draws += uint64(len(want))
			var got []int // visited with each duplicate folded into its original
			for _, v := range visited {
				if len(got) == 0 || got[len(got)-1] != v {
					got = append(got, v)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("t=%v src=%d: receivers visited %v, want the in-range set in id order %v", at, src, got, want)
			}
		})
	}
	s.RunAll()
	if faults.Draws() != draws {
		t.Errorf("%d delivery-fault draws, want one per decodable reception (%d)", faults.Draws(), draws)
	}
	if m.FaultStats.Duplicated == 0 || draws < 240 {
		t.Errorf("scenario too tame: %d duplicates over %d receptions", m.FaultStats.Duplicated, draws)
	}
}

func TestNeighborsMatchesBruteForce(t *testing.T) {
	cfg := radio.DefaultConfig()
	model, oracle := waypointPair(50, 20, 0, 5)
	s := sim.New()
	m := radio.New(s, model, cfg)

	var buf []int
	for step := 0; step < 200; step++ {
		at := time.Duration(step) * 300 * time.Millisecond
		id := step % 50
		s.At(at, func() {
			buf = m.NeighborsAppend(id, buf[:0])
			inRange, _ := oracleSets(oracle, cfg, id, at)
			if len(buf) != len(inRange) {
				t.Errorf("t=%v: Neighbors(%d) has %d entries, oracle %d", at, id, len(buf), len(inRange))
				return
			}
			prev := -1
			for _, v := range buf {
				if !inRange[v] {
					t.Errorf("t=%v: Neighbors(%d) contains %d, oracle disagrees", at, id, v)
				}
				if v <= prev {
					t.Errorf("t=%v: Neighbors(%d) not in ascending order: %v", at, id, buf)
				}
				prev = v
			}
		})
	}
	s.RunAll()
}

// TestDirectionalQueriesMixedRanges pins the directional query API on a
// hand-placed asymmetric pair and cross-checks ReachableFrom/Neighbors
// against the brute-force oracle under mixed classes: ReachableFrom is
// the transmitter-range set, Neighbors only keeps mutually decodable
// links.
func TestDirectionalQueriesMixedRanges(t *testing.T) {
	cfg := radio.Config{Classes: []radio.Class{
		{Range: 400, CSRange: 800}, // node 0: long
		{Range: 150, CSRange: 300}, // node 1: short
	}}
	// 250 m apart: within 0's range, beyond 1's.
	pts := []mobility.Point{{X: 0, Y: 0}, {X: 250, Y: 0}}
	s := sim.New()
	m := radio.New(s, mobility.NewStatic(pts), cfg)

	if !m.InRangeFrom(0, 1) {
		t.Error("InRangeFrom(0,1): long-range node should reach the short one")
	}
	if m.InRangeFrom(1, 0) {
		t.Error("InRangeFrom(1,0): short-range node must not reach back")
	}
	if m.InRange(0, 1) || m.InRange(1, 0) {
		t.Error("InRange: a one-way pair is not a usable link")
	}
	if got := m.ReachableFrom(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ReachableFrom(0) = %v, want [1]", got)
	}
	if got := m.ReachableFrom(1); len(got) != 0 {
		t.Errorf("ReachableFrom(1) = %v, want []", got)
	}
	if got := m.Neighbors(0); len(got) != 0 {
		t.Errorf("Neighbors(0) = %v, want [] (link is one-way)", got)
	}
	if got, want := m.TxRange(0), 400.0; got != want {
		t.Errorf("TxRange(0) = %v, want %v", got, want)
	}
	if got := m.TxRanges(); len(got) != 2 || got[1] != 150 {
		t.Errorf("TxRanges() = %v, want [400 150]", got)
	}

	// Randomized cross-check of the directional sets against the oracle.
	mcfg := mixedConfig()
	r := rng.New(23)
	rpts := make([]mobility.Point, 50)
	for i := range rpts {
		rpts[i] = mobility.Point{X: r.Float64() * 3000, Y: r.Float64() * 2000}
	}
	s2 := sim.New()
	m2 := radio.New(s2, mobility.NewStatic(rpts), mcfg)
	oracle := mobility.NewStatic(rpts)
	var buf []int
	for id := 0; id < len(rpts); id++ {
		inRange, _ := oracleSets(oracle, mcfg, id, 0)
		buf = m2.ReachableFromAppend(id, buf[:0])
		if len(buf) != len(inRange) {
			t.Errorf("ReachableFrom(%d): %d entries, oracle %d", id, len(buf), len(inRange))
		}
		for _, v := range buf {
			if !inRange[v] {
				t.Errorf("ReachableFrom(%d) contains %d, oracle disagrees", id, v)
			}
		}
		for _, v := range m2.Neighbors(id) {
			back, _ := oracleSets(oracle, mcfg, v, 0)
			if !inRange[v] || !back[id] {
				t.Errorf("Neighbors(%d) contains %d but the link is not mutual", id, v)
			}
		}
	}
}
