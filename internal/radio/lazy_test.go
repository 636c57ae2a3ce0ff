package radio_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// Transmit decides most nodes from a position it kept, looking a node up
// only when the motion since could change the answer or the node's leg has
// ended. These tests pin that this is unobservable: who decodes a frame and
// who senses it equal the brute-force oracle's sets from an independent
// model instance, and the mobility streams stand, after every frame, where
// looking every node up at every frame leaves them (radio.PerReceiver, the
// scan as it was, over a third instance). The cases are the ones the old
// scan never needed: kept positions seconds to a minute old, legs ending
// between frames, every model and warp, nodes detached and re-attached,
// links severed and healed.

// lazyCase is one mobility model and radio configuration to drive.
type lazyCase struct {
	name  string
	cfg   radio.Config
	model func(src *rng.Source) mobility.Model // a fresh, identical model on every call
	rests bool                                 // no node moves for part of the run
}

var lazyTerrain = mobility.Terrain{Width: 2400, Height: 1500}

func lazyWaypoint(n int, minSpeed, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		return mobility.NewWaypoint(n, mobility.WaypointConfig{
			Terrain: lazyTerrain, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause}, src)
	}
}

func lazyManhattan(n int, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		return mobility.NewManhattan(n, mobility.ManhattanConfig{
			Terrain: lazyTerrain, MinSpeed: 1, MaxSpeed: maxSpeed, Pause: pause}, src)
	}
}

func lazyGaussMarkov(n int, maxSpeed float64) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		return mobility.NewGaussMarkov(n, mobility.GaussMarkovConfig{
			Terrain: lazyTerrain, MeanSpeed: maxSpeed / 2, MaxSpeed: maxSpeed}, src)
	}
}

func lazyWarped(inner func(*rng.Source) mobility.Model, warp mobility.Warp) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model { return mobility.NewWarped(inner(src), warp) }
}

// lazyStatic scatters n nodes that never move.
func lazyStatic(n int) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		pts := make([]mobility.Point, n)
		for i := range pts {
			pts[i] = mobility.Point{X: src.Float64() * lazyTerrain.Width, Y: src.Float64() * lazyTerrain.Height}
		}
		return mobility.NewStatic(pts)
	}
}

// lazyScript gives every fifth of n nodes one position for good; the
// others wait up to 300 s, drive at 10–20 m/s, stop for up to 200 s,
// drive on and stay. The last of them arrives within about 1000 s.
func lazyScript(n int) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		point := func() mobility.Point {
			return mobility.Point{X: src.Float64() * lazyTerrain.Width, Y: src.Float64() * lazyTerrain.Height}
		}
		tracks := make([][]mobility.ScriptLeg, n)
		for i := range tracks {
			at := time.Duration(src.Float64() * float64(300*time.Second))
			tracks[i] = []mobility.ScriptLeg{{At: at, Pos: point()}}
			if i%5 == 0 {
				continue
			}
			for leg := 0; leg < 2; leg++ {
				from, to := tracks[i][len(tracks[i])-1].Pos, point()
				at += time.Duration(from.Dist(to) / src.Range(10, 20) * float64(time.Second))
				tracks[i] = append(tracks[i], mobility.ScriptLeg{At: at, Pos: to})
				if leg == 0 {
					at += time.Duration(src.Float64() * float64(200*time.Second))
					tracks[i] = append(tracks[i], mobility.ScriptLeg{At: at, Pos: to})
				}
			}
		}
		return mobility.NewScript(tracks)
	}
}

func lazyCases() []lazyCase {
	const n = 40
	gradient, hotspot := mobility.GradientWarp(lazyTerrain), mobility.HotspotWarp(lazyTerrain)
	return []lazyCase{
		{"waypoint", radio.DefaultConfig(), lazyWaypoint(n, 1, 20, 0), false},
		{"waypoint-fast", radio.DefaultConfig(), lazyWaypoint(n, 20, 20, 0), false},
		{"waypoint-pause", mixedConfig(), lazyWaypoint(n, 1, 20, 3*time.Second), false},
		{"waypoint-long-pause", radio.DefaultConfig(), lazyWaypoint(n, 5, 20, 90*time.Second), false},
		{"manhattan", radio.DefaultConfig(), lazyManhattan(n, 20, 0), false},
		{"manhattan-pause", mixedConfig(), lazyManhattan(n, 20, 2*time.Second), false},
		{"gaussmarkov", mixedConfig(), lazyGaussMarkov(n, 20), false},
		{"gradient", radio.DefaultConfig(), lazyWarped(lazyWaypoint(n, 1, 20, 0), gradient), false},
		{"hotspot", mixedConfig(), lazyWarped(lazyWaypoint(n, 1, 20, time.Second), hotspot), false},
		{"hotspot-gaussmarkov", radio.DefaultConfig(), lazyWarped(lazyGaussMarkov(n, 20), hotspot), false},
		// Resting networks. A pause longer than the run (about 2000 s of
		// lazyGaps) is a static network that drew its places; a 400 s pause
		// at 10–20 m/s rests, moves, then rests again until the first node
		// to have arrived leaves while the others still rest.
		{"waypoint-resting", mixedConfig(), lazyWaypoint(n, 1, 20, time.Hour), true},
		{"waypoint-rest-epochs", radio.DefaultConfig(), lazyWaypoint(n, 10, 20, 400*time.Second), true},
		{"script-stop", radio.DefaultConfig(), lazyScript(n), true},
		{"static", mixedConfig(), lazyStatic(n), true},
	}
}

// countingModel counts the Position calls a medium makes.
type countingModel struct {
	mobility.Model
	calls int
}

func (c *countingModel) Position(id int, at time.Duration) mobility.Point {
	c.calls++
	return c.Model.Position(id, at)
}

// lazyGaps is the spacing of frames: bursts a few milliseconds apart, so
// that most nodes are decided from a kept position, between silences of
// 5 s and 60 s, after which every kept position is up to 100 m or 1200 m
// stale at 20 m/s and several legs old.
var lazyGaps = []time.Duration{
	5 * time.Millisecond, 20 * time.Millisecond, 5 * time.Second, 7 * time.Millisecond,
	300 * time.Millisecond, 5 * time.Millisecond, 60 * time.Second, 11 * time.Millisecond,
	40 * time.Millisecond, 1500 * time.Millisecond, 6 * time.Millisecond, 9 * time.Millisecond,
}

// lazyStats is what a run did, for the checks that it exercised something.
type lazyStats struct {
	lookups, refLookups int
	decoded, sensed     int
	scans               uint64 // receiver scans in the medium under test
}

// runLazy drives frames transmissions from script-chosen sources over
// three instances of c's model built from the same seed — the medium under
// test, the per-receiver reference and the oracle — with nodes detached
// and re-attached and links severed and healed along the way, and checks
// after every frame the decoded set, the mid-flight Busy set and the
// position of the model's random streams. pick(k, n) chooses frame k's
// sender and gap(k) the time to the next frame. When c rests, the first
// half of the run cuts no link, since a cut installs faults and ends the
// reuse of rest-epoch receiver sets for good, and detaches or re-attaches
// a node every 20 frames instead of every 5, so that senders repeat inside
// an epoch.
func runLazy(t *testing.T, c lazyCase, seed int64, frames int, pick func(k, n int) int, gap func(k int) time.Duration) lazyStats {
	t.Helper()
	type world struct {
		src      *rng.Source
		model    *countingModel
		s        *sim.Simulator
		m        *radio.Medium
		transmit func(src, bits int, payload any) time.Duration
		decoded  map[int]bool
		rx       []radio.ReceiverFunc
	}
	mk := func(reference bool) *world {
		w := &world{src: rng.New(seed), s: sim.New(), decoded: map[int]bool{}}
		w.model = &countingModel{Model: c.model(w.src)}
		w.m = radio.New(w.s, w.model, c.cfg)
		w.transmit = w.m.Transmit
		if reference {
			w.transmit = w.m.PerReceiver().Transmit
		}
		for i := 0; i < w.model.NumNodes(); i++ {
			i := i
			w.rx = append(w.rx, func(int, any) { w.decoded[i] = true })
			w.m.Attach(i, w.rx[i])
		}
		return w
	}
	got, ref := mk(false), mk(true)
	worlds := []*world{got, ref}
	oracle := c.model(rng.New(seed))
	n := oracle.NumNodes()

	attached := make([]bool, n)
	for i := range attached {
		attached[i] = true
	}
	down := map[[2]int]bool{}
	blocked := func(a, b int) bool { return down[[2]int{a, b}] || down[[2]int{b, a}] }

	const bits = 4096 // ≈ 2 ms airtime, under the shortest gap
	var st lazyStats
	var at time.Duration
	for k := 0; k < frames; k++ {
		src := pick(k, n)
		// Every few frames a node goes deaf for a while, or a link is cut.
		quiet := c.rests && k < frames/2
		every := 5
		if quiet {
			every = 20
		}
		if node := (k * 7) % n; k%every == 1 {
			attached[node] = !attached[node]
			for _, w := range worlds {
				if attached[node] {
					w.m.Attach(node, w.rx[node])
				} else {
					w.m.Attach(node, nil)
				}
			}
		}
		if a, b := (k*3)%n, (k*11+1)%n; !quiet && k%4 == 2 && a != b {
			down[[2]int{a, b}] = !blocked(a, b)
			if !down[[2]int{a, b}] {
				delete(down, [2]int{b, a})
			}
			for _, w := range worlds {
				w.m.SetLinkDown(a, b, blocked(a, b))
			}
		}
		for _, w := range worlds {
			clear(w.decoded)
			w.s.Run(at)
			w.transmit(src, bits, k)
			w.s.Run(at + radio.PropDelay + time.Nanosecond)
		}
		inRange, senses := oracleSets(oracle, c.cfg, src, at)
		hears := func(i int) bool { return attached[i] && !blocked(src, i) }
		for i := 0; i < n; i++ {
			if i == src {
				continue
			}
			if want := senses[i] && hears(i); got.m.Busy(i) != want {
				t.Errorf("frame %d t=%v src=%d: Busy(%d)=%v, oracle carrier-sense says %v", k, at, src, i, !want, want)
			} else if want {
				st.sensed++
			}
		}
		for _, w := range worlds {
			w.s.RunAll()
		}
		for i := 0; i < n; i++ {
			if want := i != src && inRange[i] && hears(i); got.decoded[i] != want {
				t.Errorf("frame %d t=%v src=%d: decoded[%d]=%v, oracle in-range says %v", k, at, src, i, !want, want)
			} else if want {
				st.decoded++
			}
		}
		if g, r := got.src.Draws(), ref.src.Draws(); g != r {
			t.Fatalf("frame %d t=%v: mobility streams at %d draws, %d when every node is looked up at every frame", k, at, g, r)
		}
		at += gap(k)
	}
	st.lookups, st.refLookups = got.model.calls, ref.model.calls
	st.scans = got.m.Scans()
	return st
}

func TestLazyScanMatchesBruteForce(t *testing.T) {
	for _, c := range lazyCases() {
		for seed := int64(1); seed <= 2; seed++ {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s-%d", c.name, seed), func(t *testing.T) {
				r := rng.New(500 + seed)
				const frames = 360
				st := runLazy(t, c, seed, frames,
					func(_, n int) int { return r.Intn(n) },
					func(k int) time.Duration { return lazyGaps[k%len(lazyGaps)] })
				if st.decoded < frames || st.sensed < 2*frames {
					t.Errorf("scenario too tame: %d decoded, %d sensed over %d frames", st.decoded, st.sensed, frames)
				}
				// The point of the exercise: most nodes are not looked up.
				if st.lookups*2 > st.refLookups {
					t.Errorf("%d position lookups, %d when every node is looked up: nothing was kept", st.lookups, st.refLookups)
				}
				if c.rests && st.scans >= frames {
					t.Errorf("%d scans for %d frames: no frame reused a rest epoch's receiver sets", st.scans, frames)
				}
			})
		}
	}
}

// TestLazyScanOnTheRangeCircles places nodes at exactly the decodable and
// the carrier-sense distance from a sender, at many bearings. Around the
// circle the squared distance lands a few units in the last place to either
// side of the squared range, while its root rounds back onto the range
// exactly: a comparison of squares alone would disagree with the distance
// comparison it replaces. mobility.Margin is what sends these back to the
// root.
func TestLazyScanOnTheRangeCircles(t *testing.T) {
	cfg := radio.DefaultConfig()
	pts := []mobility.Point{{X: 1000, Y: 1000}}
	straddlers := 0
	for k := 0; k < 720; k++ {
		sin, cos := math.Sincos(float64(k) * math.Pi / 360)
		for _, r := range []float64{radio.DefaultRange, radio.DefaultCSRange} {
			p := mobility.Point{X: 1000 + r*cos, Y: 1000 + r*sin}
			dx, dy := pts[0].X-p.X, pts[0].Y-p.Y
			if d2 := dx*dx + dy*dy; (d2 <= r*r) != (pts[0].Dist(p) <= r) {
				straddlers++
			}
			pts = append(pts, p)
		}
	}
	if straddlers < 50 {
		t.Fatalf("only %d of %d placements separate the squared comparison from the exact one", straddlers, len(pts)-1)
	}
	checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), cfg, []int{0, 0}, 100*time.Millisecond)
}

// FuzzReceiverSet lets the fuzzer choose the model, its speeds and pause,
// the radio classes, the senders and the silences between frames.
func FuzzReceiverSet(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint16(0), false, []byte{0, 3, 200, 7, 90, 1, 255, 4})
	f.Add(int64(2), uint8(1), uint8(20), uint16(1500), true, []byte{9, 9, 9, 130, 2, 250, 60, 60, 5})
	f.Add(int64(3), uint8(2), uint8(12), uint16(0), true, []byte{250, 1, 1, 1, 251, 2, 2, 252})
	f.Add(int64(4), uint8(3), uint8(20), uint16(300), false, []byte{17, 140, 33, 254, 8, 8, 201})
	f.Add(int64(5), uint8(4), uint8(1), uint16(60000), false, []byte{255, 255, 0, 255})
	f.Fuzz(func(t *testing.T, seed int64, kind, maxSpeed uint8, pauseMs uint16, mixed bool, script []byte) {
		fuzzReceiverSet(t, false, seed, kind, maxSpeed, pauseMs, mixed, script)
	})
}

// FuzzRestingReceiverSet is FuzzReceiverSet on runLazy's resting schedule:
// no link cut in the first half of the script and fewer attachment
// changes, so that rest epochs last and senders repeat inside them.
func FuzzRestingReceiverSet(f *testing.F) {
	// A network at rest for the whole script, senders repeating; rests
	// ending mid-script, between frames of one sender.
	f.Add(int64(6), uint8(0), uint8(20), uint16(65535), false,
		[]byte{3, 27, 3, 51, 27, 9, 3, 75, 51, 9, 27, 3, 99, 3, 51, 75, 9, 27, 3, 51, 123, 3, 27, 9, 51, 3, 75, 27, 3, 9})
	f.Add(int64(7), uint8(3), uint8(15), uint16(20000), true,
		[]byte{5, 29, 5, 53, 29, 5, 252, 5, 29, 53, 5, 29, 253, 5, 29, 53, 5, 200, 29, 5, 53, 29, 5, 250, 5, 29})
	f.Add(int64(8), uint8(1), uint8(20), uint16(30000), false,
		[]byte{2, 26, 2, 50, 26, 2, 251, 2, 26, 50, 2, 254, 2, 26, 50, 26, 2, 2, 26})
	f.Fuzz(func(t *testing.T, seed int64, kind, maxSpeed uint8, pauseMs uint16, mixed bool, script []byte) {
		fuzzReceiverSet(t, true, seed, kind, maxSpeed, pauseMs, mixed, script)
	})
}

// fuzzReceiverSet runs one fuzz input through runLazy.
func fuzzReceiverSet(t *testing.T, rests bool, seed int64, kind, maxSpeed uint8, pauseMs uint16, mixed bool, script []byte) {
	if len(script) == 0 {
		return
	}
	if len(script) > 200 {
		script = script[:200]
	}
	speed := 1 + float64(maxSpeed%60)
	pause := time.Duration(pauseMs) * time.Millisecond
	c := lazyCase{name: "fuzz", cfg: radio.DefaultConfig(), rests: rests}
	if mixed {
		c.cfg = mixedConfig()
	}
	const n = 24
	c.model = [...]func(*rng.Source) mobility.Model{
		lazyWaypoint(n, 1, speed, pause),
		lazyManhattan(n, speed, pause),
		lazyGaussMarkov(n, speed),
		lazyWarped(lazyWaypoint(n, speed, speed, pause), mobility.HotspotWarp(lazyTerrain)),
		lazyWarped(lazyWaypoint(n, 1, speed, pause), mobility.GradientWarp(lazyTerrain)),
	}[kind%5]
	// A script byte is a sender and a silence: 3 ms to 130 ms in steps, or
	// for the top values seconds to a minute.
	gap := func(k int) time.Duration {
		switch b := script[k]; {
		case b >= 250:
			return time.Duration(b-249) * 10 * time.Second
		case b >= 200:
			return time.Duration(b-199) * 100 * time.Millisecond
		default:
			return 3*time.Millisecond + time.Duration(b)*time.Millisecond/2
		}
	}
	runLazy(t, c, seed, len(script), func(k, n int) int { return int(script[k]) % n }, gap)
}
