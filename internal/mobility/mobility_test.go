package mobility_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
)

func waypointModel(n int, pause time.Duration, seed int64) *mobility.Waypoint {
	return mobility.NewWaypoint(n, mobility.WaypointConfig{
		Terrain:  mobility.Terrain{Width: 1500, Height: 300},
		MinSpeed: 1,
		MaxSpeed: 20,
		Pause:    pause,
	}, rng.New(seed))
}

// inside reports whether p lies within the terrain.
func inside(t mobility.Terrain, p mobility.Point) bool {
	return p.X >= 0 && p.X <= t.Width && p.Y >= 0 && p.Y <= t.Height
}

func TestWaypointStaysInsideTerrain(t *testing.T) {
	m := waypointModel(10, 0, 1)
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	for step := 0; step < 2000; step++ {
		at := time.Duration(step) * 500 * time.Millisecond
		for id := 0; id < m.NumNodes(); id++ {
			if p := m.Position(id, at); !inside(terrain, p) {
				t.Fatalf("node %d left terrain at t=%v: %+v", id, at, p)
			}
		}
	}
}

func TestWaypointInitialPauseHoldsStill(t *testing.T) {
	m := waypointModel(5, 30*time.Second, 2)
	for id := 0; id < 5; id++ {
		p0 := m.Position(id, 0)
		p1 := m.Position(id, 29*time.Second)
		if p0 != p1 {
			t.Fatalf("node %d moved during its initial pause: %+v -> %+v", id, p0, p1)
		}
	}
}

func TestWaypointEventuallyMoves(t *testing.T) {
	m := waypointModel(5, time.Second, 3)
	moved := false
	for id := 0; id < 5 && !moved; id++ {
		if m.Position(id, 0) != m.Position(id, 60*time.Second) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no node moved within a minute despite a 1s pause time")
	}
}

// TestWaypointQueryPatternInvariance: querying a node densely or
// sparsely must not change where it ends up.
func TestWaypointQueryPatternInvariance(t *testing.T) {
	dense := waypointModel(4, time.Second, 5)
	sparse := waypointModel(4, time.Second, 5)
	final := 120 * time.Second
	for id := 0; id < 4; id++ {
		for step := 0; step < 1200; step++ {
			dense.Position(id, time.Duration(step)*100*time.Millisecond)
		}
		if a, b := dense.Position(id, final), sparse.Position(id, final); a != b {
			t.Fatalf("node %d: dense queries end at %+v, sparse at %+v", id, a, b)
		}
	}
}

func TestWaypointRespectsSpeedBound(t *testing.T) {
	m := waypointModel(8, 0, 4)
	const dt = 100 * time.Millisecond
	for id := 0; id < 8; id++ {
		prev := m.Position(id, 0)
		for step := 1; step < 3000; step++ {
			at := time.Duration(step) * dt
			cur := m.Position(id, at)
			// 20 m/s over 100 ms = 2 m max displacement (+ epsilon).
			if d := prev.Dist(cur); d > 2.0+1e-9 {
				t.Fatalf("node %d moved %.3f m in %v (max speed 20 m/s)", id, d, dt)
			}
			prev = cur
		}
	}
}

func TestLinePlacement(t *testing.T) {
	m := mobility.Line(4, 250)
	for i := 0; i < 4; i++ {
		p := m.Position(i, 0)
		if p.X != float64(i)*250 || p.Y != 0 {
			t.Fatalf("node %d at %+v, want (%d, 0)", i, p, i*250)
		}
	}
	if m.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
}

func TestGridPlacement(t *testing.T) {
	m := mobility.Grid(6, 3, 100)
	want := []mobility.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0},
		{X: 0, Y: 100}, {X: 100, Y: 100}, {X: 200, Y: 100},
	}
	for i, w := range want {
		if p := m.Position(i, time.Hour); p != w {
			t.Fatalf("node %d at %+v, want %+v", i, p, w)
		}
	}
}

func TestScriptInterpolation(t *testing.T) {
	m := mobility.NewScript([][]mobility.ScriptLeg{{
		{At: 0, Pos: mobility.Point{X: 0, Y: 0}},
		{At: 10 * time.Second, Pos: mobility.Point{X: 0, Y: 0}},
		{At: 20 * time.Second, Pos: mobility.Point{X: 100, Y: 0}},
	}})
	tests := []struct {
		at   time.Duration
		want mobility.Point
	}{
		{0, mobility.Point{X: 0, Y: 0}},
		{5 * time.Second, mobility.Point{X: 0, Y: 0}},
		{15 * time.Second, mobility.Point{X: 50, Y: 0}},
		{20 * time.Second, mobility.Point{X: 100, Y: 0}},
		{time.Hour, mobility.Point{X: 100, Y: 0}}, // holds the final position
	}
	for _, tt := range tests {
		if got := m.Position(0, tt.at); got != tt.want {
			t.Fatalf("Position(t=%v) = %+v, want %+v", tt.at, got, tt.want)
		}
	}
}

func TestDistSymmetricAndNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := mobility.Point{X: float64(ax), Y: float64(ay)}
		b := mobility.Point{X: float64(bx), Y: float64(by)}
		return a.Dist(b) == b.Dist(a) && a.Dist(b) >= 0 && a.Dist(a) == 0
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWaypointTerrainProperty checks containment across random terrain
// shapes and pause times.
func TestWaypointTerrainProperty(t *testing.T) {
	f := func(w, h uint16, pauseSec uint8, seed int64) bool {
		terrain := mobility.Terrain{Width: float64(w%2000) + 10, Height: float64(h%2000) + 10}
		m := mobility.NewWaypoint(3, mobility.WaypointConfig{
			Terrain:  terrain,
			MinSpeed: 1,
			MaxSpeed: 20,
			Pause:    time.Duration(pauseSec) * time.Second,
		}, rng.New(seed))
		for step := 0; step < 100; step++ {
			at := time.Duration(step) * time.Second
			for id := 0; id < 3; id++ {
				if !inside(terrain, m.Position(id, at)) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
