package mobility_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
)

// The warps must keep every node inside the terrain, actually skew the
// spatial distribution the way their names claim, and leave the inner
// model's draw streams untouched (a warped and an unwarped copy of the
// same seeded model stay in lockstep before warping).

func terrain() mobility.Terrain { return mobility.Terrain{Width: 1500, Height: 300} }

func waypoint(seed int64) *mobility.Waypoint {
	return mobility.NewWaypoint(40, mobility.WaypointConfig{
		Terrain:  terrain(),
		MinSpeed: 1,
		MaxSpeed: 20,
	}, rng.New(seed))
}

func TestWarpsStayInTerrain(t *testing.T) {
	tr := terrain()
	for _, tc := range []struct {
		name string
		warp mobility.Warp
	}{
		{"gradient", mobility.GradientWarp(tr)},
		{"hotspot", mobility.HotspotWarp(tr)},
	} {
		m := mobility.NewWarped(waypoint(3), tc.warp)
		for id := 0; id < m.NumNodes(); id++ {
			for s := 0; s <= 120; s += 5 {
				p := m.Position(id, time.Duration(s)*time.Second)
				if !tr.Contains(p) {
					t.Fatalf("%s: node %d at t=%ds left the terrain: %+v", tc.name, id, s, p)
				}
			}
		}
	}
}

func TestGradientWarpSkewsDensity(t *testing.T) {
	tr := terrain()
	m := mobility.NewWarped(waypoint(7), mobility.GradientWarp(tr))
	// Sample positions over time; far more mass must land in the left
	// half than the right (uniform would split ~50/50, the square warp
	// puts ~71% of a uniform marginal left of W/2).
	left, total := 0, 0
	for id := 0; id < m.NumNodes(); id++ {
		for s := 0; s <= 300; s += 3 {
			p := m.Position(id, time.Duration(s)*time.Second)
			total++
			if p.X < tr.Width/2 {
				left++
			}
		}
	}
	if frac := float64(left) / float64(total); frac < 0.60 {
		t.Fatalf("gradient warp left-half fraction %.2f, want ≥ 0.60", frac)
	}
}

func TestHotspotWarpConcentratesCenter(t *testing.T) {
	tr := terrain()
	warped := mobility.NewWarped(waypoint(11), mobility.HotspotWarp(tr))
	flat := waypoint(11)
	// The warped model must place strictly more samples in the central
	// quarter of each axis than the uniform one does.
	central := func(m mobility.Model) int {
		n := 0
		for id := 0; id < m.NumNodes(); id++ {
			for s := 0; s <= 300; s += 3 {
				p := m.Position(id, time.Duration(s)*time.Second)
				if p.X > tr.Width*3/8 && p.X < tr.Width*5/8 &&
					p.Y > tr.Height*3/8 && p.Y < tr.Height*5/8 {
					n++
				}
			}
		}
		return n
	}
	cw, cf := central(warped), central(flat)
	if cw <= cf {
		t.Fatalf("hotspot central-region samples %d not above uniform's %d", cw, cf)
	}
}

func TestWarpLeavesInnerModelUntouched(t *testing.T) {
	// Two identically seeded waypoint models, one warped: the inner
	// trajectories must stay in lockstep, proving the warp draws nothing
	// and perturbs no stream (the plumbing guarantee the replay tests
	// lean on).
	inner := waypoint(19)
	_ = mobility.NewWarped(inner, mobility.GradientWarp(terrain()))
	ref := waypoint(19)
	warp := mobility.GradientWarp(terrain())
	for id := 0; id < ref.NumNodes(); id++ {
		for s := 0; s <= 60; s += 7 {
			at := time.Duration(s) * time.Second
			got := inner.Position(id, at)
			want := ref.Position(id, at)
			if got != want {
				t.Fatalf("inner model diverged at node %d t=%v: %+v vs %+v", id, at, got, want)
			}
			_ = warp.Map(got)
		}
	}
}
