package mobility_test

import (
	"math"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
)

// TestKeptPositionPromise is the Model contract the radio's receiver scan
// rests on, for every model alone and under both warps: after
// Position(id, t1), through LegEnd(id), a query draws from no random stream
// and finds the node within Slack(SpeedBound(), t2-t1) of where it was —
// in fact within SpeedBound()·(t2-t1+1 ns), the nanosecond being the
// truncation of a leg's duration, which the fixed-speed rows show is used.
func TestKeptPositionPromise(t *testing.T) {
	tr := mobility.Terrain{Width: 1500, Height: 300}
	waypoint := func(minSpeed, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
		return func(src *rng.Source) mobility.Model {
			return mobility.NewWaypoint(6, mobility.WaypointConfig{Terrain: tr, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause}, src)
		}
	}
	script := func(jump time.Duration) func(*rng.Source) mobility.Model {
		return func(*rng.Source) mobility.Model {
			return mobility.NewScript([][]mobility.ScriptLeg{
				{{At: 0, Pos: mobility.Point{X: 10, Y: 10}}, {At: 40 * time.Second, Pos: mobility.Point{X: 810, Y: 10}}, // 20 m/s
					{At: 50 * time.Second, Pos: mobility.Point{X: 810, Y: 10}}, {At: 90 * time.Second, Pos: mobility.Point{X: 700, Y: 290}}},
				{{At: 5 * time.Second, Pos: mobility.Point{X: 1400, Y: 200}}},
				{{At: 0, Pos: mobility.Point{X: 3, Y: 4}}, {At: 30 * time.Second, Pos: mobility.Point{X: 3, Y: 4}},
					{At: 30*time.Second + jump, Pos: mobility.Point{X: 1203, Y: 4}}},
			})
		}
	}
	models := []struct {
		name  string
		mk    func(*rng.Source) mobility.Model
		bound float64 // SpeedBound of the unwarped model
		draws bool    // a query past LegEnd draws
		exact bool    // some leg runs at exactly the bound, so the nanosecond shows
	}{
		{"waypoint", waypoint(1, 20, 0), 20, true, false},
		{"waypoint-pause", waypoint(1, 20, 2*time.Second), 20, true, false},
		{"waypoint-fixed-speed", waypoint(20, 20, 0), 20, true, true},
		{"manhattan", func(src *rng.Source) mobility.Model {
			return mobility.NewManhattan(6, mobility.ManhattanConfig{Terrain: tr, MinSpeed: 1, MaxSpeed: 20, Pause: time.Second}, src)
		}, 20, true, false},
		{"manhattan-fixed-speed", func(src *rng.Source) mobility.Model {
			return mobility.NewManhattan(6, mobility.ManhattanConfig{Terrain: tr, MinSpeed: 7, MaxSpeed: 7}, src)
		}, 7, true, true},
		{"gaussmarkov", func(src *rng.Source) mobility.Model {
			return mobility.NewGaussMarkov(6, mobility.GaussMarkovConfig{Terrain: tr, MeanSpeed: 10, MaxSpeed: 20}, src)
		}, 20, true, false},
		{"static", func(*rng.Source) mobility.Model { return mobility.Grid(6, 3, 200) }, 0, false, false},
		{"script", script(60 * time.Second), 20, false, false},
		{"script-jump", script(0), math.Inf(1), false, false},
	}
	warps := []struct {
		name string
		wrap func(mobility.Model) mobility.Model
		k    float64
	}{
		{"plain", func(m mobility.Model) mobility.Model { return m }, 1},
		{"gradient", func(m mobility.Model) mobility.Model { return mobility.NewWarped(m, mobility.GradientWarp(tr)) }, 2},
		{"hotspot", func(m mobility.Model) mobility.Model { return mobility.NewWarped(m, mobility.HotspotWarp(tr)) }, 3},
	}
	for _, mc := range models {
		for _, wc := range warps {
			t.Run(mc.name+"/"+wc.name, func(t *testing.T) {
				src := rng.New(11)
				m := wc.wrap(mc.mk(src))
				bound := m.SpeedBound()
				if bound != mc.bound*wc.k {
					t.Fatalf("SpeedBound() = %v, want %v × %v", bound, mc.bound, wc.k)
				}
				r := rng.New(12)
				ahead, pastEnd := 0.0, 0
				for id := 0; id < m.NumNodes(); id++ {
					var t1 time.Duration
					for t1 < 400*time.Second {
						p1 := m.Position(id, t1)
						end, before := m.LegEnd(id), src.Draws()
						if end < t1 {
							t.Fatalf("node %d: LegEnd %v before the query at %v that set it", id, end, t1)
						}
						// A few instants inside the leg, the last of them its end.
						last := min(end, t1+100*time.Second)
						for _, t2 := range []time.Duration{t1, t1 + time.Duration(r.Float64()*float64(last-t1)), last} {
							d := p1.Dist(m.Position(id, t2))
							if src.Draws() != before {
								t.Fatalf("node %d: Position at %v drew, LegEnd promised none through %v", id, t2, end)
							}
							if d > mobility.Slack(bound, t2-t1) {
								t.Fatalf("node %d: moved %v m from %v to %v, Slack allows %v", id, d, t1, t2, mobility.Slack(bound, t2-t1))
							}
							if !math.IsInf(bound, 1) {
								ahead = max(ahead, d-bound*(t2-t1).Seconds())
							}
						}
						if end == mobility.Forever {
							t1 += time.Duration(1 + r.Intn(int(30*time.Second)))
							continue
						}
						// The first instant past the leg is the next query.
						t1 = end + 1
						m.Position(id, t1)
						if src.Draws() != before {
							pastEnd++
						} else if mc.draws {
							t.Fatalf("node %d: LegEnd %v, yet Position a nanosecond later drew nothing", id, end)
						}
					}
				}
				if mc.draws == (pastEnd == 0) {
					t.Errorf("%d queries past a LegEnd drew; draws expected: %v", pastEnd, mc.draws)
				}
				// Rounding aside, a node is never more than a nanosecond of
				// travel ahead of its bound, and on a leg at the bound it is ahead.
				if limit := bound*1e-9 + 1e-9; !math.IsInf(bound, 1) && ahead > limit {
					t.Errorf("a node ran %v m ahead of SpeedBound, more than a nanosecond of travel (%v m)", ahead, limit)
				}
				if mc.exact && wc.k == 1 && ahead <= 1e-12 {
					t.Errorf("no leg ran ahead of SpeedBound (%v m): the nanosecond in Slack is not exercised", ahead)
				}
			})
		}
	}
}

// TestSlack pins the three terms of Slack.
func TestSlack(t *testing.T) {
	for _, c := range []struct {
		bound float64
		dt    time.Duration
		want  float64
	}{
		{0, time.Hour, mobility.Margin},
		{20, 0, 20e-9 + mobility.Margin},
		{20, 5 * time.Second, 100 + 20e-9 + mobility.Margin},
		{math.Inf(1), 0, math.Inf(1)},
	} {
		if got := mobility.Slack(c.bound, c.dt); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("Slack(%v, %v) = %v, want %v", c.bound, c.dt, got, c.want)
		}
	}
}
