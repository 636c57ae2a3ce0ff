// Package mobility provides node mobility models for the simulator.
//
// Models are analytic: a node's position is a closed-form function of
// virtual time, so mobility adds no events to the simulation. The random
// waypoint model matches the evaluation setup of the LDR paper (nodes pick
// a uniform destination, move at a uniform speed in [MinSpeed, MaxSpeed],
// then pause for a fixed pause time).
package mobility

import (
	"math"
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/rng"
)

// Point is a position on the terrain, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points in meters.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Model yields node positions over time. Queries must be issued with
// non-decreasing times per node; the simulator guarantees this because all
// queries happen at the current virtual time.
//
// SpeedBound and LegEnd are a promise that lets a caller keep a position
// instead of asking again: after Position(id, t1), for every t2 in
// [t1, LegEnd(id)], Position(id, t2) draws from no random stream and lies
// within Slack(SpeedBound(), t2-t1) of Position(id, t1). Past LegEnd the
// caller has to ask, which is also what keeps every stream where asking at
// every instant would have left it.
type Model interface {
	// Position returns the position of node id at virtual time at.
	Position(id int, at time.Duration) Point
	// NumNodes returns the number of nodes the model covers.
	NumNodes() int
	// SpeedBound returns a speed in m/s that no node exceeds at any time,
	// +Inf when the model cannot name one.
	SpeedBound() float64
	// LegEnd returns the last instant of the leg node id's latest Position
	// query left it on; Forever when its trajectory needs no further draw.
	LegEnd(id int) time.Duration
}

// Forever is the LegEnd of a node whose trajectory is fixed for good.
const Forever = time.Duration(math.MaxInt64)

// Margin is the part of Slack that does not grow with time, in meters: a
// micrometre, six orders of magnitude above the rounding of a coordinate
// on any terrain used here. It is what sends a comparison of squared
// distances that floating point could decide either way back to the exact
// computation, also for nodes that never move.
const Margin = 1e-6

// Slack bounds how far a node can be, dt into a leg, from where it was:
// bound meters per second, for one nanosecond longer than dt, plus Margin.
// The nanosecond is real: Waypoint and Manhattan truncate a leg's duration
// to whole nanoseconds, so a node covers its leg in up to a nanosecond less
// than its drawn speed allows and runs ahead of SpeedBound by up to one
// nanosecond of travel (20 nm at 20 m/s). An infinite bound gives an
// infinite slack.
func Slack(bound float64, dt time.Duration) float64 {
	return bound*float64(dt+time.Nanosecond)*1e-9 + Margin
}

// Terrain is the rectangular simulation area, in meters.
type Terrain struct {
	Width, Height float64
}

// Contains reports whether p lies within the terrain.
func (t Terrain) Contains(p Point) bool {
	return p.X >= 0 && p.X <= t.Width && p.Y >= 0 && p.Y <= t.Height
}

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	Terrain  Terrain
	MinSpeed float64       // m/s, must be > 0 to avoid the stuck-node pathology
	MaxSpeed float64       // m/s
	Pause    time.Duration // fixed pause at each waypoint
}

// Waypoint implements the random waypoint model.
//
// Each node draws waypoints and speeds from its own PRNG stream (split
// from the scenario seed by node index), so a node's trajectory is a pure
// function of (seed, node, time): legs are advanced lazily on Position
// queries, and neither the order of queries across nodes nor how often a
// node is queried changes where anyone ends up. This query-pattern
// invariance is what makes it harmless that the radio asks for a node's
// position only when the answer could change who hears a frame or when the
// node's leg has ended (see Model), while analysis tools, fault hooks and
// tests ask for whichever nodes they like in between.
type Waypoint struct {
	cfg   WaypointConfig
	nodes []waypointState
}

type waypointState struct {
	from, to   Point
	segStart   time.Duration // movement start
	segEnd     time.Duration // arrival at `to`
	pauseUntil time.Duration // end of pause following arrival
	rng        *rng.Source   // this node's private stream
}

var _ Model = (*Waypoint)(nil)

// NewWaypoint places n nodes uniformly on the terrain. Every node begins
// with an initial pause (so a pause time equal to the simulation length
// yields a static network, as in the paper's 900 s pause-time data points).
func NewWaypoint(n int, cfg WaypointConfig, src *rng.Source) *Waypoint {
	if cfg.MinSpeed <= 0 {
		cfg.MinSpeed = 1
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		cfg.MaxSpeed = cfg.MinSpeed
	}
	w := &Waypoint{
		cfg:   cfg,
		nodes: make([]waypointState, n),
	}
	for i := range w.nodes {
		st := &w.nodes[i]
		st.rng = src.Split("waypoint" + strconv.Itoa(i))
		p := w.randomPoint(st)
		st.from = p
		st.to = p
		st.pauseUntil = cfg.Pause
	}
	return w
}

// NumNodes implements Model.
func (w *Waypoint) NumNodes() int { return len(w.nodes) }

// SpeedBound implements Model: every leg's speed is drawn at or below it.
func (w *Waypoint) SpeedBound() float64 { return w.cfg.MaxSpeed }

// LegEnd implements Model: Position draws the next leg only past the pause.
func (w *Waypoint) LegEnd(id int) time.Duration { return w.nodes[id].pauseUntil }

// Position implements Model.
func (w *Waypoint) Position(id int, at time.Duration) Point {
	st := &w.nodes[id]
	for at > st.pauseUntil {
		w.nextLeg(st)
	}
	if at >= st.segEnd {
		return st.to // paused at the waypoint
	}
	if st.segEnd == st.segStart {
		return st.to
	}
	frac := float64(at-st.segStart) / float64(st.segEnd-st.segStart)
	return Point{
		X: st.from.X + (st.to.X-st.from.X)*frac,
		Y: st.from.Y + (st.to.Y-st.from.Y)*frac,
	}
}

func (w *Waypoint) nextLeg(st *waypointState) {
	st.from = st.to
	st.to = w.randomPoint(st)
	speed := st.rng.Range(w.cfg.MinSpeed, w.cfg.MaxSpeed)
	dist := st.from.Dist(st.to)
	st.segStart = st.pauseUntil
	st.segEnd = st.segStart + time.Duration(dist/speed*float64(time.Second))
	st.pauseUntil = st.segEnd + w.cfg.Pause
}

func (w *Waypoint) randomPoint(st *waypointState) Point {
	return Point{
		X: st.rng.Float64() * w.cfg.Terrain.Width,
		Y: st.rng.Float64() * w.cfg.Terrain.Height,
	}
}

// Static is a mobility model in which nodes never move.
type Static struct {
	pts []Point
}

var _ Model = (*Static)(nil)

// NewStatic pins nodes at the given positions.
func NewStatic(pts []Point) *Static {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Static{pts: cp}
}

// NumNodes implements Model.
func (s *Static) NumNodes() int { return len(s.pts) }

// SpeedBound implements Model.
func (s *Static) SpeedBound() float64 { return 0 }

// LegEnd implements Model.
func (s *Static) LegEnd(int) time.Duration { return Forever }

// Position implements Model.
func (s *Static) Position(id int, _ time.Duration) Point { return s.pts[id] }

// Line places n static nodes on a horizontal line with the given spacing,
// a convenient topology for protocol unit tests (node i can only hear
// nodes i-1 and i+1 when spacing is just under the radio range).
func Line(n int, spacing float64) *Static {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(i) * spacing, Y: 0}
	}
	return NewStatic(pts)
}

// Grid places n static nodes row-major on a grid with the given spacing.
func Grid(n, cols int, spacing float64) *Static {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: float64(i%cols) * spacing,
			Y: float64(i/cols) * spacing,
		}
	}
	return NewStatic(pts)
}

// Script is a mobility model driven by per-node piecewise-linear
// trajectories, useful for reproducing hand-constructed scenarios such as
// the paper's Figure 1 example and for partition/heal demonstrations.
type Script struct {
	tracks [][]ScriptLeg
	bound  float64 // fastest leg of any track, m/s
}

// ScriptLeg is one segment of a scripted trajectory: the node is at Pos at
// time At, and moves linearly toward the next leg's Pos thereafter.
type ScriptLeg struct {
	At  time.Duration
	Pos Point
}

var _ Model = (*Script)(nil)

// NewScript builds a scripted model. Each track must be sorted by time and
// non-empty; the node holds its first position before the first leg and its
// last position after the final leg.
func NewScript(tracks [][]ScriptLeg) *Script {
	s := &Script{tracks: tracks}
	for _, track := range tracks {
		for i := 1; i < len(track); i++ {
			// A jump in zero time is an infinite speed, also in the arithmetic.
			if d := track[i-1].Pos.Dist(track[i].Pos); d > 0 {
				s.bound = max(s.bound, d/(track[i].At-track[i-1].At).Seconds())
			}
		}
	}
	return s
}

// NumNodes implements Model.
func (s *Script) NumNodes() int { return len(s.tracks) }

// SpeedBound implements Model: the fastest scripted leg, +Inf if a track
// jumps.
func (s *Script) SpeedBound() float64 { return s.bound }

// LegEnd implements Model: a script draws nothing.
func (s *Script) LegEnd(int) time.Duration { return Forever }

// Position implements Model.
func (s *Script) Position(id int, at time.Duration) Point {
	track := s.tracks[id]
	if len(track) == 0 {
		return Point{}
	}
	if at <= track[0].At {
		return track[0].Pos
	}
	for i := 1; i < len(track); i++ {
		if at <= track[i].At {
			a, b := track[i-1], track[i]
			if b.At == a.At {
				return b.Pos
			}
			frac := float64(at-a.At) / float64(b.At-a.At)
			return Point{
				X: a.Pos.X + (b.Pos.X-a.Pos.X)*frac,
				Y: a.Pos.Y + (b.Pos.Y-a.Pos.Y)*frac,
			}
		}
	}
	return track[len(track)-1].Pos
}
