package mobility

// Manhattan-grid mobility: nodes are constrained to a street grid laid
// over the terrain and move from intersection to intersection, turning
// with a fixed probability. The model follows the ETSI urban
// vehicular pattern used by the MANET comparison literature ("Simulation
// Analysis of Routing Protocols using Manhattan Grid Mobility Model in
// MANET"): street-constrained movement concentrates nodes on shared
// lines, creating chains of short-lived links that flip protocol
// rankings relative to open-field random waypoint.

import (
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/rng"
)

// The street grid every run uses.
const (
	// streetSpacing is the target distance between parallel streets, in
	// meters; the terrain edges are always streets, so each axis has at
	// least two.
	streetSpacing = 150
	// turnProb is the probability of leaving the current heading at an
	// intersection where a turn is possible; the remainder continues
	// straight. Turns split evenly between the available left/right
	// options. U-turns happen only at dead ends (terrain edges).
	turnProb = 0.25
)

// speedClasses are per-street speed multipliers, full-speed avenues
// alternating with slower side streets: street i (counting vertical
// streets west→east, then horizontal streets south→north) uses
// speedClasses[i % len].
var speedClasses = [...]float64{1, 0.6}

// ManhattanConfig is what a scenario varies about the street grid.
type ManhattanConfig struct {
	Terrain            Terrain
	MinSpeed, MaxSpeed float64 // m/s base speed, drawn per leg
	// Pause is a fixed stop at every intersection (a traffic light
	// stand-in). Zero keeps nodes moving.
	Pause time.Duration
}

// streets returns the number of parallel streets across a terrain span.
func streets(span float64) int {
	return max(int(span/streetSpacing)+1, 2)
}

// heading is a cardinal movement direction on the grid.
type heading int

const (
	east heading = iota
	west
	north
	south
)

// Manhattan implements the Manhattan-grid model.
//
// Like Waypoint, trajectories are advanced lazily leg by leg on Position
// queries and every node draws from its own split stream, so a node's
// position is a pure function of (seed, node, time): neither the order of
// queries across nodes nor the query cadence changes anyone's path.
type Manhattan struct {
	cfg    ManhattanConfig
	nx, ny int     // vertical and horizontal street counts
	dx, dy float64 // street spacing
	nodes  []manhattanState
}

type manhattanState struct {
	ix, iy     int     // intersection the current leg starts from
	dir        heading // current leg's direction
	from, to   Point
	segStart   time.Duration
	segEnd     time.Duration
	pauseUntil time.Duration
	rng        *rng.Source
}

var _ Model = (*Manhattan)(nil)

// NewManhattan places n nodes at random intersections with random
// feasible headings.
func NewManhattan(n int, cfg ManhattanConfig, src *rng.Source) *Manhattan {
	if cfg.MinSpeed <= 0 {
		cfg.MinSpeed = 1
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		cfg.MaxSpeed = cfg.MinSpeed
	}
	nx, ny := streets(cfg.Terrain.Width), streets(cfg.Terrain.Height)
	m := &Manhattan{
		cfg:   cfg,
		nx:    nx,
		ny:    ny,
		dx:    cfg.Terrain.Width / float64(nx-1),
		dy:    cfg.Terrain.Height / float64(ny-1),
		nodes: make([]manhattanState, n),
	}
	for i := range m.nodes {
		st := &m.nodes[i]
		st.rng = src.Split("manhattan" + strconv.Itoa(i))
		st.ix = st.rng.Intn(nx)
		st.iy = st.rng.Intn(ny)
		st.dir = m.randomFeasibleHeading(st)
		p := m.intersection(st.ix, st.iy)
		st.from, st.to = p, p
		st.pauseUntil = 0 // first leg starts immediately
	}
	return m
}

// NumNodes implements Model.
func (m *Manhattan) NumNodes() int { return len(m.nodes) }

// Piece implements Model: the street segment, then the pause at the
// intersection it reaches; Position draws the next leg only past the
// pause.
func (m *Manhattan) Piece(id int, t time.Duration) Piece {
	st := &m.nodes[id]
	return segmentPiece(st.from, st.to, st.segStart, st.segEnd, st.pauseUntil, t)
}

// Position implements Model.
func (m *Manhattan) Position(id int, at time.Duration) Point {
	st := &m.nodes[id]
	for at > st.pauseUntil {
		m.nextLeg(st)
	}
	if at >= st.segEnd || st.segEnd == st.segStart {
		return st.to // paused at the intersection
	}
	frac := float64(at-st.segStart) / float64(st.segEnd-st.segStart)
	return Point{
		X: st.from.X + (st.to.X-st.from.X)*frac,
		Y: st.from.Y + (st.to.Y-st.from.Y)*frac,
	}
}

// intersection returns the coordinates of grid intersection (ix, iy).
func (m *Manhattan) intersection(ix, iy int) Point {
	return Point{X: float64(ix) * m.dx, Y: float64(iy) * m.dy}
}

// feasible reports whether a heading stays on the grid from (ix, iy).
func (m *Manhattan) feasible(ix, iy int, d heading) bool {
	switch d {
	case east:
		return ix+1 < m.nx
	case west:
		return ix > 0
	case north:
		return iy+1 < m.ny
	default: // south
		return iy > 0
	}
}

func (m *Manhattan) randomFeasibleHeading(st *manhattanState) heading {
	// One unconditional draw keeps the per-node stream position fixed;
	// rotate from the drawn candidate until feasible (≤ 3 extra checks,
	// no draws). Every interior intersection admits all four headings.
	d := heading(st.rng.Intn(4))
	for i := 0; i < 4; i++ {
		if m.feasible(st.ix, st.iy, d) {
			return d
		}
		d = (d + 1) % 4
	}
	return east // unreachable: grids are at least 2×2
}

// turn returns the headings perpendicular to d.
func turns(d heading) (heading, heading) {
	if d == east || d == west {
		return north, south
	}
	return east, west
}

// reverse returns the opposite heading.
func reverse(d heading) heading {
	switch d {
	case east:
		return west
	case west:
		return east
	case north:
		return south
	default:
		return north
	}
}

// chooseHeading picks the next leg's direction at the current
// intersection: continue straight with probability 1-turnProb, otherwise
// turn onto a feasible cross street; dead ends force a turn or U-turn.
// Draws are unconditional (one uniform plus one coin) so the stream
// position after a leg never depends on the intersection's geometry.
func (m *Manhattan) chooseHeading(st *manhattanState) heading {
	turnRoll := st.rng.Float64()
	sideRoll := st.rng.Float64()
	l, r := turns(st.dir)
	lOK := m.feasible(st.ix, st.iy, l)
	rOK := m.feasible(st.ix, st.iy, r)
	straightOK := m.feasible(st.ix, st.iy, st.dir)

	wantTurn := turnRoll < turnProb
	if straightOK && !wantTurn {
		return st.dir
	}
	switch {
	case lOK && rOK:
		if sideRoll < 0.5 {
			return l
		}
		return r
	case lOK:
		return l
	case rOK:
		return r
	case straightOK:
		return st.dir // wanted to turn but no cross street exists here
	default:
		return reverse(st.dir) // dead end: U-turn
	}
}

// streetIndex numbers the street a heading travels on from (ix, iy):
// vertical streets first (by x index), then horizontal (by y index).
func (m *Manhattan) streetIndex(st *manhattanState, d heading) int {
	if d == north || d == south {
		return st.ix
	}
	return m.nx + st.iy
}

// nextLeg advances st to its next intersection-to-intersection segment.
func (m *Manhattan) nextLeg(st *manhattanState) {
	st.dir = m.chooseHeading(st)
	nix, niy := st.ix, st.iy
	switch st.dir {
	case east:
		nix++
	case west:
		nix--
	case north:
		niy++
	case south:
		niy--
	}
	class := speedClasses[m.streetIndex(st, st.dir)%len(speedClasses)]
	speed := st.rng.Range(m.cfg.MinSpeed, m.cfg.MaxSpeed) * class
	st.from = m.intersection(st.ix, st.iy)
	st.to = m.intersection(nix, niy)
	st.ix, st.iy = nix, niy
	dist := st.from.Dist(st.to)
	st.segStart = st.pauseUntil
	st.segEnd = st.segStart + time.Duration(dist/speed*float64(time.Second))
	st.pauseUntil = st.segEnd + m.cfg.Pause
}

// OnStreet reports whether p lies on a street line of the grid, within
// tol meters — the Manhattan invariant the property tests assert.
func (m *Manhattan) OnStreet(p Point, tol float64) bool {
	if !m.cfg.Terrain.Contains(p) {
		return false
	}
	onVertical := nearMultiple(p.X, m.dx, tol)
	onHorizontal := nearMultiple(p.Y, m.dy, tol)
	return onVertical || onHorizontal
}

func nearMultiple(v, step, tol float64) bool {
	if step <= 0 {
		return false
	}
	k := v / step
	frac := k - float64(int(k+0.5))
	d := frac * step
	if d < 0 {
		d = -d
	}
	return d <= tol
}
