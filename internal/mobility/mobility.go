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
// Piece is a promise that lets a caller keep a position instead of asking
// again: after Position(id, t1), Piece(id, t1) draws nothing, and for
// every t2 in [t1, End] Position(id, t2) draws from no random stream and
// lies within Margin of Position(id, t1) + V·(t2-t1), so a caller that
// knows two nodes' pieces knows their distance until the earlier End.
// Past End the caller has to ask, which is also what keeps every stream
// where asking at every instant would have left it.
type Model interface {
	// Position returns the position of node id at virtual time at.
	Position(id int, at time.Duration) Point
	// NumNodes returns the number of nodes the model covers.
	NumNodes() int
	// Piece returns the straight piece node id is on at t, the instant of
	// its latest Position query: a Waypoint segment or pause, a Script
	// leg, or forever for a Static node.
	Piece(id int, t time.Duration) Piece
}

// Piece is a straight piece of a node's trajectory: from where the node is
// at the instant it was asked for, it moves at V (m/s along each axis)
// through End.
type Piece struct {
	V   Point
	End time.Duration
}

// segmentPiece is the piece at t of a leg that moves from `from` at start
// to `to` at arrive and rests there through rest.
func segmentPiece(from, to Point, start, arrive, rest, t time.Duration) Piece {
	if t >= arrive || arrive == start {
		return Piece{End: rest}
	}
	dt := (arrive - start).Seconds()
	return Piece{V: Point{X: (to.X - from.X) / dt, Y: (to.Y - from.Y) / dt}, End: arrive}
}

// Forever is the End of a piece that lasts for good.
const Forever = time.Duration(math.MaxInt64)

// Margin is how far a node may stray from the line a Model promises, in
// meters: a micrometre, six orders of magnitude above the rounding of a
// coordinate on any terrain used here. It is what sends a comparison of
// distances that floating point could decide either way back to the
// exact computation, also for nodes that never move.
const Margin = 1e-6

// Terrain is the rectangular simulation area, in meters.
type Terrain struct {
	Width, Height float64
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

// Piece implements Model: the segment toward the waypoint, then the pause
// there; Position draws the next leg only past the pause.
func (w *Waypoint) Piece(id int, t time.Duration) Piece {
	st := &w.nodes[id]
	return segmentPiece(st.from, st.to, st.segStart, st.segEnd, st.pauseUntil, t)
}

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

// Piece implements Model: a static node rests for good.
func (s *Static) Piece(int, time.Duration) Piece { return Piece{End: Forever} }

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
func NewScript(tracks [][]ScriptLeg) *Script { return &Script{tracks: tracks} }

// NumNodes implements Model.
func (s *Script) NumNodes() int { return len(s.tracks) }

// Piece implements Model: the leg the node is on, the wait before the
// first, or its last position for good.
func (s *Script) Piece(id int, t time.Duration) Piece {
	track := s.tracks[id]
	if len(track) < 2 {
		return Piece{End: Forever}
	}
	if t <= track[0].At {
		return Piece{End: track[0].At}
	}
	for i := 1; i < len(track); i++ {
		if a, b := track[i-1], track[i]; t <= b.At {
			return segmentPiece(a.Pos, b.Pos, a.At, b.At, b.At, t)
		}
	}
	return Piece{End: Forever}
}

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
