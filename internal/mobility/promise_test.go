package mobility_test

import (
	"math"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
)

// promiseTerrain is the terrain of the promise tests' models.
var promiseTerrain = mobility.Terrain{Width: 1500, Height: 300}

// promiseModel is one model the promise tests hold to the Model contract.
type promiseModel struct {
	name  string
	mk    func(*rng.Source) mobility.Model
	bound float64 // the configured top speed, +Inf for a jump
	draws bool    // a query past a piece's End may draw
	exact bool    // some leg runs at exactly the bound, so the nanosecond shows
	split bool    // some piece ends before the node's next draw
	rests bool    // some node sits still for a while on a leg it draws
}

// promiseScript is three scripted nodes: one that drives, stops, drives on
// and stays, one that never moves, and one that waits and then covers
// 1200 m in jump (an infinite speed when jump is 0).
func promiseScript(jump time.Duration) func(*rng.Source) mobility.Model {
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

func promiseModels() []promiseModel {
	tr := promiseTerrain
	waypoint := func(minSpeed, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
		return func(src *rng.Source) mobility.Model {
			return mobility.NewWaypoint(6, mobility.WaypointConfig{Terrain: tr, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause}, src)
		}
	}
	return []promiseModel{
		{"waypoint", waypoint(1, 20, 0), 20, true, false, false, false},
		{"waypoint-pause", waypoint(1, 20, 2*time.Second), 20, true, false, true, true},
		{"waypoint-fixed-speed", waypoint(20, 20, 0), 20, true, true, false, false},
		{"static", func(*rng.Source) mobility.Model { return mobility.Grid(6, 3, 200) }, 0, false, false, false, true},
		{"script", promiseScript(60 * time.Second), 20, false, false, true, true},
		{"script-jump", promiseScript(0), math.Inf(1), false, false, true, true},
	}
}

// slack bounds how far a node can be, dt after a query, from where it
// was: bound meters per second, for one nanosecond longer than dt, plus
// Margin.
func slack(bound float64, dt time.Duration) float64 {
	return bound*float64(dt+time.Nanosecond)*1e-9 + mobility.Margin
}

// TestKeptPositionPromise is the Model contract a kept position rests on,
// for every model: after Position(id, t1), through Piece(id, t1)'s End, a
// query draws from no random stream and finds the node within
// slack(bound, t2-t1) of where it was, bound being the configured top
// speed — in fact within bound·(t2-t1+1 ns), the nanosecond being the
// truncation of a leg's duration, which the fixed-speed rows show is used.
// A query just past End draws in a model that draws, except where the
// piece ends before the leg does.
func TestKeptPositionPromise(t *testing.T) {
	for _, mc := range promiseModels() {
		t.Run(mc.name, func(t *testing.T) {
			src := rng.New(11)
			m := mc.mk(src)
			bound := mc.bound
			r := rng.New(12)
			ahead, pastEnd, split := 0.0, 0, 0
			for id := 0; id < m.NumNodes(); id++ {
				var t1 time.Duration
				for t1 < 400*time.Second {
					p1 := m.Position(id, t1)
					before := src.Draws()
					end := m.Piece(id, t1).End
					if end < t1 {
						t.Fatalf("node %d: piece through %v, before the query at %v that set it", id, end, t1)
					}
					// A few instants on the piece, the last of them its end.
					last := min(end, t1+100*time.Second)
					for _, t2 := range []time.Duration{t1, t1 + time.Duration(r.Float64()*float64(last-t1)), last} {
						d := p1.Dist(m.Position(id, t2))
						if src.Draws() != before {
							t.Fatalf("node %d: Position at %v drew, its piece promised none through %v", id, t2, end)
						}
						if d > slack(bound, t2-t1) {
							t.Fatalf("node %d: moved %v m from %v to %v, slack allows %v", id, d, t1, t2, slack(bound, t2-t1))
						}
						if !math.IsInf(bound, 1) {
							ahead = max(ahead, d-bound*(t2-t1).Seconds())
						}
					}
					if end == mobility.Forever {
						t1 += time.Duration(1 + r.Intn(int(30*time.Second)))
						continue
					}
					// The first instant past the piece is the next query.
					t1 = end + 1
					m.Position(id, t1)
					if src.Draws() != before {
						pastEnd++
					} else {
						split++
					}
				}
			}
			if mc.draws == (pastEnd == 0) {
				t.Errorf("%d queries past a piece's End drew; draws expected: %v", pastEnd, mc.draws)
			}
			if mc.draws && mc.split != (split > 0) {
				t.Errorf("%d queries past a piece's End drew nothing; expected some: %v", split, mc.split)
			}
			// Rounding aside, a node is never more than a nanosecond of
			// travel ahead of its bound, and on a leg at the bound it is ahead.
			if limit := bound*1e-9 + 1e-9; !math.IsInf(bound, 1) && ahead > limit {
				t.Errorf("a node ran %v m ahead of its top speed, more than a nanosecond of travel (%v m)", ahead, limit)
			}
			if mc.exact && ahead <= 1e-12 {
				t.Errorf("no leg ran ahead of its top speed (%v m): the nanosecond in slack is not exercised", ahead)
			}
		})
	}
}

// TestMotionPromise is the promise the radio's horizons stand on, for
// every model: after Position(id, t1), Piece(id, t1) draws from no random
// stream, and through its End every Position(id, t2) lies within Margin
// of the line Position(id, t1) + V·(t2-t1).
func TestMotionPromise(t *testing.T) {
	for _, mc := range promiseModels() {
		t.Run(mc.name, func(t *testing.T) {
			src := rng.New(11)
			m := mc.mk(src)
			r := rng.New(12)
			moved := 0
			for id := 0; id < m.NumNodes(); id++ {
				var t1 time.Duration
				for t1 < 400*time.Second {
					p1 := m.Position(id, t1)
					before := src.Draws()
					piece := m.Piece(id, t1)
					if src.Draws() != before {
						t.Fatalf("node %d: reading its piece at %v drew", id, t1)
					}
					if piece.End < t1 {
						t.Fatalf("node %d: at %v on a piece through %v", id, t1, piece.End)
					}
					// A few instants on the piece, the last of them its end.
					last := min(piece.End, t1+100*time.Second)
					for _, t2 := range []time.Duration{t1, t1 + time.Duration(r.Float64()*float64(last-t1)), last} {
						dt := (t2 - t1).Seconds()
						want := mobility.Point{X: p1.X + piece.V.X*dt, Y: p1.Y + piece.V.Y*dt}
						if d := m.Position(id, t2).Dist(want); d > mobility.Margin {
							t.Fatalf("node %d: at %v %v m off the line of its piece from %v through %v, %+v", id, t2, d, t1, piece.End, piece)
						}
					}
					if src.Draws() != before {
						t.Fatalf("node %d: a query on its piece from %v through %v drew", id, t1, piece.End)
					}
					if piece.V != (mobility.Point{}) {
						moved++
					}
					if piece.End == mobility.Forever {
						t1 += time.Duration(1 + r.Intn(int(30*time.Second)))
					} else {
						t1 = piece.End + 1
					}
				}
			}
			if (mc.bound > 0) != (moved > 0) {
				t.Errorf("%d pieces moved; a model bounded at %v m/s should move", moved, mc.bound)
			}
		})
	}

	// A scripted jump ends a piece at its instant; a nanosecond later the
	// node is where it jumped to, for good.
	s := promiseScript(0)(nil)
	jump := 30 * time.Second
	s.Position(2, jump)
	if p := s.Piece(2, jump); p.End != jump || p.V != (mobility.Point{}) {
		t.Errorf("script node 2 before its jump: piece %+v, want still through %v", p, jump)
	}
	if q := s.Position(2, jump+1); q != (mobility.Point{X: 1203, Y: 4}) {
		t.Errorf("script node 2 after its jump at %v", q)
	}
	if p := s.Piece(2, jump+1); p.End != mobility.Forever || p.V != (mobility.Point{}) {
		t.Errorf("script node 2 after its jump: piece %+v, want still for good", p)
	}
}

// TestStillFromPromise is the still half of the piece promise, for every
// model: after Position(id, t1), when Piece(id, t1) has no velocity, every
// query through the piece's End draws from no random stream and finds the
// node at one bit-identical point. A scripted node is still at its last
// position for good from just after its last leg.
func TestStillFromPromise(t *testing.T) {
	for _, mc := range promiseModels() {
		t.Run(mc.name, func(t *testing.T) {
			src := rng.New(11)
			m := mc.mk(src)
			r := rng.New(12)
			var rested time.Duration
			for id := 0; id < m.NumNodes(); id++ {
				var t1 time.Duration
				for t1 < 400*time.Second {
					p1 := m.Position(id, t1)
					before := src.Draws()
					piece := m.Piece(id, t1)
					if piece.V == (mobility.Point{}) {
						// Up to a hundred seconds of the still piece.
						last := min(piece.End, t1+100*time.Second)
						for _, t2 := range []time.Duration{t1, t1 + time.Duration(r.Float64()*float64(last-t1)), last} {
							if q := m.Position(id, t2); q != p1 {
								t.Fatalf("node %d: at %v, still from %v through %v; at %v, %v", id, p1, t1, piece.End, t2, q)
							}
						}
						if src.Draws() != before {
							t.Fatalf("node %d: a query on the still piece from %v through %v drew", id, t1, piece.End)
						}
						rested += last - t1
					}
					if piece.End == mobility.Forever {
						t1 += time.Duration(1 + r.Intn(int(30*time.Second)))
					} else {
						t1 = piece.End + 1
					}
				}
			}
			if mc.rests && rested == 0 {
				t.Errorf("no node rested for a moment: the promise was not exercised")
			}
		})
	}

	// The last leg of a script ends in an interpolation that may round; a
	// nanosecond later the node is at the leg's position, for good.
	s := promiseScript(60 * time.Second)(nil)
	for id, last := range []mobility.ScriptLeg{
		{At: 90 * time.Second, Pos: mobility.Point{X: 700, Y: 290}},
		{At: 5 * time.Second, Pos: mobility.Point{X: 1400, Y: 200}},
		{At: 90 * time.Second, Pos: mobility.Point{X: 1203, Y: 4}},
	} {
		after := last.At + time.Nanosecond
		p := s.Position(id, after)
		piece := s.Piece(id, after)
		if p != last.Pos || piece != (mobility.Piece{End: mobility.Forever}) {
			t.Errorf("script node %d: at %v it is at %v on piece %+v; want still at %v for good",
				id, after, p, piece, last.Pos)
		}
	}
}
