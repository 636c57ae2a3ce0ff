package radio_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// Transmit copies a sender's receiver sets, looking a node up only when
// its pair's horizon has passed, and leaves out of the copy the nodes a
// link cut or a partition hides. These tests pin that this is
// unobservable: who decodes a frame and who senses it equal the
// brute-force oracle's sets from an independent model instance and
// radio.PerReceiver's (the scan that looks every node up, over a third
// instance), and the mobility streams and fault counters stand, after
// every frame, where PerReceiver leaves them. The cases are the ones a
// per-frame scan never needed: sets and kept positions seconds to a minute
// old, legs ending between frames, every model, a crowded terrain, nodes
// detached and re-attached, links severed and healed, partitions installed
// and healed.

// lazyCase is one mobility model to drive.
type lazyCase struct {
	name  string
	model func(src *rng.Source) mobility.Model // a fresh, identical model on every call
	rests bool                                 // no node moves for part of the run
}

var lazyTerrain = mobility.Terrain{Width: 2400, Height: 1500}

// lazyCrowded is a terrain on which most pairs are within carrier sense
// and many within decoding range, so receiver sets are large.
var lazyCrowded = mobility.Terrain{Width: 700, Height: 500}

func lazyWaypoint(n int, minSpeed, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
	return lazyWaypointOn(lazyTerrain, n, minSpeed, maxSpeed, pause)
}

func lazyWaypointOn(tr mobility.Terrain, n int, minSpeed, maxSpeed float64, pause time.Duration) func(*rng.Source) mobility.Model {
	return func(src *rng.Source) mobility.Model {
		return mobility.NewWaypoint(n, mobility.WaypointConfig{
			Terrain: tr, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause}, src)
	}
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
	return []lazyCase{
		{"waypoint", lazyWaypoint(n, 1, 20, 0), false},
		{"waypoint-fast", lazyWaypoint(n, 20, 20, 0), false},
		{"waypoint-pause", lazyWaypoint(n, 1, 20, 3*time.Second), false},
		{"waypoint-long-pause", lazyWaypoint(n, 5, 20, 90*time.Second), false},
		{"crowded", lazyWaypointOn(lazyCrowded, n, 1, 20, 0), false},
		{"crowded-pause", lazyWaypointOn(lazyCrowded, n, 1, 20, time.Second), false},
		{"crowded-fast", lazyWaypointOn(lazyCrowded, n, 20, 20, 0), false},
		// Resting networks. A pause longer than the run (about 2000 s of
		// lazyGaps) is a static network that drew its places; a 400 s pause
		// at 10–20 m/s rests, moves, then rests again until the first node
		// to have arrived leaves while the others still rest.
		{"waypoint-resting", lazyWaypoint(n, 1, 20, time.Hour), true},
		{"waypoint-rest-epochs", lazyWaypoint(n, 10, 20, 400*time.Second), true},
		{"script-stop", lazyScript(n), true},
		{"static", lazyStatic(n), true},
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
// that most pairs are copied from a sender's sets, between silences of
// 5 s and 60 s, after which every horizon and kept position is up to
// 100 m or 1200 m stale at 20 m/s and several legs old.
var lazyGaps = []time.Duration{
	5 * time.Millisecond, 20 * time.Millisecond, 5 * time.Second, 7 * time.Millisecond,
	300 * time.Millisecond, 5 * time.Millisecond, 60 * time.Second, 11 * time.Millisecond,
	40 * time.Millisecond, 1500 * time.Millisecond, 6 * time.Millisecond, 9 * time.Millisecond,
}

// lazyStats is what a run did, for the checks that it exercised something.
type lazyStats struct {
	lookups, refLookups int
	decoded, sensed     int
	decisions           uint64 // pair decisions in the medium under test
	pairs               int    // frames × receivers
	copies              int    // frames that decided no pair
}

// lazySchedule is how runLazy churns the medium around its frames.
type lazySchedule int

const (
	// churn detaches or re-attaches a node every 5 frames, cuts or heals
	// a link every 4, the cuts piling up for the rest of the run, and
	// installs or heals a partition every 15.
	churn lazySchedule = iota
	// bursts changes attachment every 20 frames, cuts a link or two late
	// in every 40 and heals them all at the 40th, and partitions the
	// network for frames 13 to 30 of every 40: in between, senders' sets
	// last and most frames copy them.
	bursts
)

// runLazy drives frames transmissions from script-chosen sources over
// three instances of c's model built from the same seed — the medium under
// test, the per-receiver reference and the oracle — with nodes detached
// and re-attached, links severed and healed and the network partitioned
// and healed along the way, and checks after every frame the decoded set
// and the mid-flight Busy set against both the oracle and the reference,
// and FaultStats and the position of the model's random streams against
// the reference. pick(k, n) chooses frame k's sender and gap(k) the time
// to the next frame, sched the churn, and split, if not nil, the frames
// that also install a partition or heal the one installed. When c rests,
// the first half of the run cuts no link and changes attachment every 20
// frames (churn) or 40 (bursts), so that senders' sets last.
func runLazy(t *testing.T, c lazyCase, sched lazySchedule, seed int64, frames int, pick func(k, n int) int, gap func(k int) time.Duration, split func(k int) bool) lazyStats {
	t.Helper()
	type world struct {
		src      *rng.Source
		model    *countingModel
		s        *sim.Simulator
		m        *radio.Medium
		transmit func(src, bits int, payload any) time.Duration
		busy     func(id int) bool
		decoded  map[int]bool
		rx       []radio.ReceiverFunc
	}
	mk := func(reference bool) *world {
		w := &world{src: rng.New(seed), s: sim.New(), decoded: map[int]bool{}}
		w.model = &countingModel{Model: c.model(w.src)}
		w.m = radio.New(w.s, w.model, radio.DefaultConfig())
		w.transmit, w.busy = w.m.Transmit, w.m.Busy
		if reference {
			pr := w.m.PerReceiver()
			w.transmit, w.busy = pr.Transmit, pr.Busy
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
	cut := func(a, b int) bool { return down[[2]int{a, b}] || down[[2]int{b, a}] }
	var cells []int // the partition installed; nil, none
	blocked := func(a, b int) bool { return cut(a, b) || cells != nil && cells[a] != cells[b] }

	const bits = 4096 // ≈ 2 ms airtime, under the shortest gap
	var st lazyStats
	var at time.Duration
	for k := 0; k < frames; k++ {
		src := pick(k, n)
		// Every few frames a node goes deaf for a while, or a link is cut.
		quiet := c.rests && k < frames/2
		every, cuts := 5, k%4 == 2
		if quiet {
			every = 20
		}
		if sched == bursts {
			every, cuts = 20, k%40 >= 37
			if quiet {
				every = 40
			}
		}
		if sched == bursts && k%40 == 0 {
			for p, cut := range down {
				for _, w := range worlds {
					if cut {
						w.m.SetLinkDown(p[0], p[1], false)
					}
				}
			}
			clear(down)
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
		if a, b := (k*3)%n, (k*11+1)%n; !quiet && cuts && a != b {
			down[[2]int{a, b}] = !cut(a, b)
			if !down[[2]int{a, b}] {
				delete(down, [2]int{b, a})
			}
			for _, w := range worlds {
				w.m.SetLinkDown(a, b, cut(a, b))
			}
		}
		// A partition into three cells, a different one each time.
		toggle := sched == churn && k%15 == 7 || sched == bursts && (k%40 == 13 || k%40 == 31)
		if toggle || split != nil && split(k) {
			if cells == nil {
				cells = make([]int, n)
				for i := range cells {
					cells[i] = (i*7 + k) % 3
				}
			} else {
				cells = nil
			}
			for _, w := range worlds {
				w.m.SetPartition(cells)
			}
		}
		before := got.m.Decisions()
		for _, w := range worlds {
			clear(w.decoded)
			w.s.Run(at)
			w.transmit(src, bits, k)
			w.s.Run(at + radio.PropDelay + time.Nanosecond)
		}
		if got.m.Decisions() == before {
			st.copies++
		}
		inRange, senses := oracleSets(oracle, src, at)
		hears := func(i int) bool { return attached[i] && !blocked(src, i) }
		for i := 0; i < n; i++ {
			if i == src {
				continue
			}
			if want := senses[i] && hears(i); got.busy(i) != want || ref.busy(i) != want {
				t.Errorf("frame %d t=%v src=%d: Busy(%d)=%v, per receiver %v, oracle carrier-sense says %v", k, at, src, i, got.busy(i), ref.busy(i), want)
			} else if want {
				st.sensed++
			}
		}
		for _, w := range worlds {
			w.s.RunAll()
		}
		for i := 0; i < n; i++ {
			if want := i != src && inRange[i] && hears(i); got.decoded[i] != want || ref.decoded[i] != want {
				t.Errorf("frame %d t=%v src=%d: decoded[%d]=%v, per receiver %v, oracle in-range says %v", k, at, src, i, got.decoded[i], ref.decoded[i], want)
			} else if want {
				st.decoded++
			}
		}
		if got.m.FaultStats != ref.m.FaultStats {
			t.Fatalf("frame %d t=%v: FaultStats %+v, per receiver %+v", k, at, got.m.FaultStats, ref.m.FaultStats)
		}
		if g, r := got.src.Draws(), ref.src.Draws(); g != r {
			t.Fatalf("frame %d t=%v: mobility streams at %d draws, %d when every node is looked up at every frame", k, at, g, r)
		}
		at += gap(k)
	}
	st.lookups, st.refLookups = got.model.calls, ref.model.calls
	st.pairs = frames * (n - 1)
	st.decisions = got.m.Decisions()
	return st
}

// TestLazyScanMatchesBruteForce runs every case on both schedules: on
// churn a new random sender per frame, on bursts a sender holding the
// channel until a silence of a second or more.
func TestLazyScanMatchesBruteForce(t *testing.T) {
	for _, c := range lazyCases() {
		for _, sched := range []lazySchedule{churn, bursts} {
			for seed := int64(1); seed <= 2; seed++ {
				c, sched, seed := c, sched, seed
				name := fmt.Sprintf("%s-%d", c.name, seed)
				if sched == bursts {
					name += "-bursts"
				}
				t.Run(name, func(t *testing.T) {
					r := rng.New(500 + seed)
					const frames = 360
					src := 0
					st := runLazy(t, c, sched, seed, frames,
						func(k, n int) int {
							if sched == churn || k == 0 || lazyGaps[(k-1)%len(lazyGaps)] >= time.Second {
								src = r.Intn(n)
							}
							return src
						},
						func(k int) time.Duration { return lazyGaps[k%len(lazyGaps)] }, nil)
					if st.decoded < frames || st.sensed < 2*frames {
						t.Errorf("scenario too tame: %d decoded, %d sensed over %d frames", st.decoded, st.sensed, frames)
					}
					// The point of the exercise: in bursts and in a resting
					// network most nodes are not looked up, a resting network's
					// senders reuse their sets, and in bursts most pairs are
					// copied. On churn a sender's last frame is seconds old, so
					// a moving network looks most nodes up again.
					if (sched == bursts || c.rests) && st.lookups*2 > st.refLookups {
						t.Errorf("%d position lookups, %d when every node is looked up: nothing was kept", st.lookups, st.refLookups)
					}
					if c.rests && st.copies == 0 {
						t.Errorf("every one of %d frames decided a pair: no sender reused its sets", frames)
					}
					if sched == bursts && st.decisions*2 >= uint64(st.pairs) {
						t.Errorf("%d pairs decided of %d frames × receivers: the sets were not reused", st.decisions, st.pairs)
					}
				})
			}
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
	checkTransmits(t, mobility.NewStatic(pts), mobility.NewStatic(pts), []int{0, 0}, 100*time.Millisecond)
}

// FuzzReceiverSet lets the fuzzer choose the model, its speeds and pause,
// the senders and the silences between frames.
func FuzzReceiverSet(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint16(0), []byte{0, 3, 200, 7, 90, 1, 255, 4})
	f.Add(int64(2), uint8(1), uint8(20), uint16(1500), []byte{9, 9, 9, 130, 2, 250, 60, 60, 5})
	f.Add(int64(3), uint8(2), uint8(12), uint16(0), []byte{250, 1, 1, 1, 251, 2, 2, 252})
	f.Add(int64(4), uint8(3), uint8(20), uint16(300), []byte{17, 140, 33, 254, 8, 8, 201})
	f.Add(int64(5), uint8(4), uint8(1), uint16(60000), []byte{255, 255, 0, 255})
	// One sender repeating 3-10 ms apart across leg ends: every waypoint's
	// first pause ends at 40 ms; on the crowded terrain a leg at up to
	// 21 m/s ends at 1.36 s, and seven at 60 m/s between 2 and 3.5 s.
	f.Add(int64(9), uint8(0), uint8(20), uint16(40), bytes.Repeat([]byte{5}, 30))
	f.Add(int64(10), uint8(2), uint8(20), uint16(0), append(bytes.Repeat([]byte{200}, 13), bytes.Repeat([]byte{8}, 25)...))
	f.Add(int64(11), uint8(1), uint8(59), uint16(0), append(bytes.Repeat([]byte{203}, 5), bytes.Repeat([]byte{11}, 180)...))
	f.Fuzz(func(t *testing.T, seed int64, kind, maxSpeed uint8, pauseMs uint16, script []byte) {
		fuzzReceiverSet(t, false, seed, kind, maxSpeed, pauseMs, script)
	})
}

// FuzzRestingReceiverSet is FuzzReceiverSet on runLazy's resting schedule:
// no link cut in the first half of the script and fewer attachment
// changes, so that senders' sets last and senders repeat inside them.
func FuzzRestingReceiverSet(f *testing.F) {
	// A network at rest for the whole script, senders repeating; rests
	// ending mid-script, between frames of one sender.
	f.Add(int64(6), uint8(0), uint8(20), uint16(65535),
		[]byte{3, 27, 3, 51, 27, 9, 3, 75, 51, 9, 27, 3, 99, 3, 51, 75, 9, 27, 3, 51, 123, 3, 27, 9, 51, 3, 75, 27, 3, 9})
	f.Add(int64(7), uint8(3), uint8(15), uint16(20000),
		[]byte{5, 29, 5, 53, 29, 5, 252, 5, 29, 53, 5, 29, 253, 5, 29, 53, 5, 200, 29, 5, 53, 29, 5, 250, 5, 29})
	f.Add(int64(8), uint8(1), uint8(20), uint16(30000),
		[]byte{2, 26, 2, 50, 26, 2, 251, 2, 26, 50, 2, 254, 2, 26, 50, 26, 2, 2, 26})
	// One sender repeating 3-10 ms apart as the first pause ends at 30 ms,
	// and on the crowded terrain as a leg at up to 31 m/s ends at 1.67 s.
	f.Add(int64(12), uint8(0), uint8(20), uint16(30), bytes.Repeat([]byte{7}, 40))
	f.Add(int64(13), uint8(2), uint8(30), uint16(0), append([]byte{209, 205}, bytes.Repeat([]byte{4}, 40)...))
	f.Fuzz(func(t *testing.T, seed int64, kind, maxSpeed uint8, pauseMs uint16, script []byte) {
		fuzzReceiverSet(t, true, seed, kind, maxSpeed, pauseMs, script)
	})
}

// fuzzReceiverSet runs one fuzz input through runLazy on both schedules.
func fuzzReceiverSet(t *testing.T, rests bool, seed int64, kind, maxSpeed uint8, pauseMs uint16, script []byte) {
	if len(script) == 0 {
		return
	}
	if len(script) > 200 {
		script = script[:200]
	}
	speed := 1 + float64(maxSpeed%60)
	pause := time.Duration(pauseMs) * time.Millisecond
	c := lazyCase{name: "fuzz", rests: rests}
	const n = 24
	c.model = [...]func(*rng.Source) mobility.Model{
		lazyWaypoint(n, 1, speed, pause),
		lazyWaypointOn(lazyCrowded, n, speed, speed, pause),
		lazyWaypointOn(lazyCrowded, n, 1, speed, pause),
	}[kind%3]
	// A script byte is a sender and a silence: 3 ms to 130 ms in steps, or
	// for the top values seconds to a minute. A byte from 240 to 249 also
	// installs a partition before its frame, or heals the one installed.
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
	for _, sched := range []lazySchedule{churn, bursts} {
		runLazy(t, c, sched, seed, len(script), func(k, n int) int { return int(script[k]) % n }, gap,
			func(k int) bool { return script[k] >= 240 && script[k] < 250 })
	}
}
