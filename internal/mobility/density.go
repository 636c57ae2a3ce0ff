package mobility

import (
	"math"
	"time"
)

// Density-gradient placement. A Warp is a deterministic, terrain-
// preserving map applied to every position an inner model reports, so a
// uniform movement model becomes a dense/sparse one without touching a
// single RNG draw: the inner model's streams are byte-identical whether
// or not a warp wraps it, replay across worker counts is untouched
// (warps are pure functions), and the identity case is simply "no
// wrapper". This is how the scenario layer expresses the dense-core /
// sparse-edge regimes of the Manhattan-grid simulation literature on top
// of any mobility model.

// Warp maps a position to a warped position. Map must send the terrain
// onto itself (no node may leave the area) and should be monotone per axis
// so trajectories stay continuous. Stretch is the most Map lengthens any
// displacement (its Lipschitz constant): a node moving at speed v under
// the inner model moves at no more than Stretch·v under the warp.
type Warp struct {
	Map     func(Point) Point
	Stretch float64
}

// Warped decorates a Model with a position warp.
type Warped struct {
	inner Model
	warp  Warp
}

// NewWarped wraps model so every reported position passes through warp.
func NewWarped(model Model, warp Warp) *Warped {
	return &Warped{inner: model, warp: warp}
}

// NumNodes implements Model.
func (w *Warped) NumNodes() int { return w.inner.NumNodes() }

// Position implements Model.
func (w *Warped) Position(id int, at time.Duration) Point {
	return w.warp.Map(w.inner.Position(id, at))
}

// SpeedBound implements Model.
func (w *Warped) SpeedBound() float64 { return w.inner.SpeedBound() * w.warp.Stretch }

// Piece implements Model: a warp bends straight pieces, so it names none,
// and draws nothing of its own, so the inner piece's End holds.
func (w *Warped) Piece(id int, t time.Duration) (Piece, bool) {
	p, _ := w.inner.Piece(id, t)
	return Piece{End: p.End}, false
}

// GradientWarp concentrates nodes toward the x = 0 edge: a uniform
// x-coordinate u·W maps to u²·W, giving a density that falls off as
// 1/√x across the terrain — dense near one edge, sparse at the far end.
// The y axis is untouched. d(u²)/du is at most 2.
func GradientWarp(t Terrain) Warp {
	return Warp{Stretch: 2, Map: func(p Point) Point {
		u := clamp01(p.X / t.Width)
		return Point{X: u * u * t.Width, Y: p.Y}
	}}
}

// HotspotWarp concentrates nodes around the terrain center on both axes:
// each normalized coordinate u maps to 0.5 + 4(u−0.5)³, a cubic that
// fixes the edges and center but pulls everything else inward, producing
// a dense core with sparse borders. The cubic's slope 12(u−0.5)² is at
// most 3, at the edges.
func HotspotWarp(t Terrain) Warp {
	pull := func(u float64) float64 {
		d := clamp01(u) - 0.5
		return 0.5 + 4*d*d*d
	}
	return Warp{Stretch: 3, Map: func(p Point) Point {
		return Point{X: pull(p.X/t.Width) * t.Width, Y: pull(p.Y/t.Height) * t.Height}
	}}
}

func clamp01(u float64) float64 {
	return math.Min(1, math.Max(0, u))
}
