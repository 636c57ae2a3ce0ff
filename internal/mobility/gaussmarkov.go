package mobility

// Gauss-Markov mobility: each node's speed and direction evolve as a
// first-order autoregressive process, so velocity is temporally
// correlated — nodes glide along smooth curves instead of teleporting
// between waypoints. The memory parameter α tunes the spectrum: α=1 is
// straight-line constant-velocity motion, α=0 is memoryless Brownian
// wandering. Near the terrain edge the mean direction is steered toward
// the interior and the position update reflects off the boundary, the
// standard terrain-handling from the model's MANET usage.

import (
	"math"
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/rng"
)

// The process parameters every run uses.
const (
	gmAlpha     = 0.75        // memory in [0, 1]: higher is smoother, more predictable motion
	gmDirStdDev = 0.4         // Gaussian innovation of the direction process, radians
	gmStep      = time.Second // interval at which velocity is re-drawn; positions interpolate linearly in between
)

// GaussMarkovConfig is what a scenario varies about the Gauss-Markov
// model. The speed innovation is MeanSpeed/4, and the edge margin inside
// which the mean direction is forced toward the terrain interior is 10%
// of the smaller terrain dimension.
type GaussMarkovConfig struct {
	Terrain   Terrain
	MeanSpeed float64 // asymptotic mean speed, m/s
	// MaxSpeed clamps the evolved speed. Speeds are also floored at 0:
	// the process never runs backward.
	MaxSpeed float64
}

// GaussMarkov implements the Gauss-Markov model.
//
// State advances in fixed gmStep increments, lazily per node on Position
// queries (which the simulator issues with non-decreasing times), so a
// node's trajectory is a pure function of (seed, node, time) regardless
// of the query pattern — the same invariance Waypoint and Manhattan
// provide.
type GaussMarkov struct {
	cfg         GaussMarkovConfig
	speedStdDev float64 // Gaussian innovation of the speed process, m/s
	margin      float64 // edge width (m) that steers toward the interior
	nodes       []gmState
}

type gmState struct {
	step       int64   // completed steps (pos/speed/dir are at step*gmStep)
	pos        Point   // position at the last step boundary
	next       Point   // position at the next step boundary
	speed, dir float64 // velocity over [step, step+1)
	rng        *rng.Source
}

var _ Model = (*GaussMarkov)(nil)

// NewGaussMarkov places n nodes uniformly with stationary-distribution
// initial velocities.
func NewGaussMarkov(n int, cfg GaussMarkovConfig, src *rng.Source) *GaussMarkov {
	g := &GaussMarkov{
		cfg:         cfg,
		speedStdDev: cfg.MeanSpeed / 4,
		margin:      0.1 * min(cfg.Terrain.Width, cfg.Terrain.Height),
		nodes:       make([]gmState, n),
	}
	for i := range g.nodes {
		st := &g.nodes[i]
		st.rng = src.Split("gaussmarkov" + strconv.Itoa(i))
		st.pos = Point{
			X: st.rng.Float64() * cfg.Terrain.Width,
			Y: st.rng.Float64() * cfg.Terrain.Height,
		}
		st.speed = clampSpeed(cfg.MeanSpeed+g.speedStdDev*gaussian(st.rng), cfg.MaxSpeed)
		st.dir = st.rng.Float64() * 2 * math.Pi
		g.advanceTarget(st)
	}
	return g
}

// NumNodes implements Model.
func (g *GaussMarkov) NumNodes() int { return len(g.nodes) }

// SpeedBound implements Model: the evolved speed is clamped to it, and
// reflecting off the boundary lengthens no step.
func (g *GaussMarkov) SpeedBound() float64 { return g.cfg.MaxSpeed }

// LegEnd implements Model: the velocity is re-drawn at the next step
// boundary.
func (g *GaussMarkov) LegEnd(id int) time.Duration {
	return time.Duration(g.nodes[id].step+1)*gmStep - time.Nanosecond
}

// StillFrom implements Model: a Gauss-Markov node never rests.
func (g *GaussMarkov) StillFrom(int) time.Duration { return Forever }

// Position implements Model.
func (g *GaussMarkov) Position(id int, at time.Duration) Point {
	st := &g.nodes[id]
	step := int64(at / gmStep)
	for st.step < step {
		g.nextStep(st)
	}
	frac := float64(at-time.Duration(st.step)*gmStep) / float64(gmStep)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return Point{
		X: st.pos.X + (st.next.X-st.pos.X)*frac,
		Y: st.pos.Y + (st.next.Y-st.pos.Y)*frac,
	}
}

// Speed exposes node id's current speed (m/s) for the property tests.
func (g *GaussMarkov) Speed(id int) float64 { return g.nodes[id].speed }

// nextStep commits the current leg and evolves (speed, dir) by the
// Gauss-Markov recurrence:
//
//	s' = α·s + (1-α)·s̄ + sqrt(1-α²)·σs·w₁
//	d' = α·d + (1-α)·d̄ + sqrt(1-α²)·σd·w₂
//
// with d̄ steered toward the interior inside the edge margin.
func (g *GaussMarkov) nextStep(st *gmState) {
	st.pos = st.next
	st.step++

	c := g.cfg
	k := math.Sqrt(1 - gmAlpha*gmAlpha)
	// Two unconditional Gaussian draws per step keep the stream position
	// a pure function of the step count.
	w1 := gaussian(st.rng)
	w2 := gaussian(st.rng)
	st.speed = clampSpeed(gmAlpha*st.speed+(1-gmAlpha)*c.MeanSpeed+k*g.speedStdDev*w1, c.MaxSpeed)
	meanDir := g.meanDirection(st)
	st.dir = gmAlpha*st.dir + (1-gmAlpha)*meanDir + k*gmDirStdDev*w2

	g.advanceTarget(st)
}

// meanDirection returns the direction the process reverts to: the
// current heading in the interior, or the bearing toward the terrain
// center inside the margin (the standard edge-avoidance steering).
func (g *GaussMarkov) meanDirection(st *gmState) float64 {
	c := g.cfg
	nearEdge := st.pos.X < g.margin || st.pos.X > c.Terrain.Width-g.margin ||
		st.pos.Y < g.margin || st.pos.Y > c.Terrain.Height-g.margin
	if !nearEdge {
		return st.dir
	}
	return math.Atan2(c.Terrain.Height/2-st.pos.Y, c.Terrain.Width/2-st.pos.X)
}

// advanceTarget computes the next step-boundary position, reflecting
// off the terrain boundary (and flipping the heading component) so
// nodes never leave the terrain.
func (g *GaussMarkov) advanceTarget(st *gmState) {
	c := g.cfg
	dt := gmStep.Seconds()
	x := st.pos.X + st.speed*math.Cos(st.dir)*dt
	y := st.pos.Y + st.speed*math.Sin(st.dir)*dt
	reflectedX := false
	reflectedY := false
	x, reflectedX = reflect(x, c.Terrain.Width)
	y, reflectedY = reflect(y, c.Terrain.Height)
	if reflectedX {
		st.dir = math.Pi - st.dir
	}
	if reflectedY {
		st.dir = -st.dir
	}
	st.next = Point{X: x, Y: y}
}

// reflect folds v into [0, max], reporting whether a boundary was hit.
// One fold suffices: a single step never travels a full terrain span
// because MaxSpeed·gmStep is far below the terrain size in any sane
// configuration, and repeated folding would still terminate (v strictly
// decreases), so loop for robustness.
func reflect(v, max float64) (float64, bool) {
	hit := false
	for v < 0 || v > max {
		if v < 0 {
			v = -v
		} else {
			v = 2*max - v
		}
		hit = true
	}
	return v, hit
}

// gaussian returns one standard-normal draw via Box-Muller. Exactly two
// uniform words are consumed per call, keeping stream positions
// schedule-independent.
func gaussian(r *rng.Source) float64 {
	u1 := 1 - r.Float64() // (0, 1], avoids log(0)
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func clampSpeed(s, max float64) float64 {
	if s < 0 {
		return 0
	}
	if s > max {
		return max
	}
	return s
}
