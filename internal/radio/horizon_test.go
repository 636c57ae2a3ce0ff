package radio_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// A sender's receiver sets stand, pair by pair, through a horizon: the last
// instant through which the straight pieces both nodes are on keep their
// distance clear of the sender's ranges. TestLazyScanMatchesBruteForce
// holds the sets to the oracle; these tests count pair decisions (pairs
// decided from positions, not copied from the sets) to pin that the sets
// are reused, and what ends the reuse.

// TestStillNetworkDecidesEachPairOncePerLeg drives frames through a static
// network, a waypoint network that pauses longer than the run and one that
// rests, moves and rests again. While every node sits still on the leg it
// sat on at the sender's last frame, a frame decides no pair; a sender's
// first frame decides every one. A network still throughout decides each
// pair once per sender, the first frames at time 0 included.
func TestStillNetworkDecidesEachPairOncePerLeg(t *testing.T) {
	const n, frames = 50, 2000
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	waypoint := func(minSpeed float64, pause time.Duration) func() mobility.Model {
		return func() mobility.Model {
			return mobility.NewWaypoint(n, mobility.WaypointConfig{Terrain: terrain, MinSpeed: minSpeed, MaxSpeed: 20, Pause: pause}, rng.New(4))
		}
	}
	pts := staticPts(3, n)
	for _, c := range []struct {
		name       string
		model      func() mobility.Model // a fresh, identical model on every call
		gap        time.Duration         // between the frames after the first n
		throughout bool                  // the network is still for the whole run
	}{
		{"static", func() mobility.Model { return mobility.NewStatic(pts) }, 10 * time.Millisecond, true},
		{"waypoint-long-pause", waypoint(1, 900*time.Second), 450 * time.Millisecond, true},
		{"waypoint-rest-and-move", waypoint(10, 100*time.Second), 500 * time.Millisecond, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			m := radio.New(s, c.model(), radio.DefaultConfig())
			for i := 0; i < n; i++ {
				m.Attach(i, func(int, any) {})
			}
			oracle := c.model()
			r := rng.New(5)
			// Per sender: the ends of every node's piece at its last frame,
			// when every node was still then (a still piece ends with its leg).
			stillAt := map[int][]time.Duration{}
			senders := map[int]bool{}
			still, reused := 0, 0
			for k := 0; k < frames; k++ {
				// The first n frames go on the air together at time 0.
				if k >= n {
					s.Run(time.Duration(k-n+1) * c.gap)
				}
				src := r.Intn(n)
				first := !senders[src]
				senders[src] = true
				before := m.Decisions()
				m.Transmit(src, 4096, nil)
				got := m.Decisions() - before

				legs, moving := make([]time.Duration, n), false
				for i := range legs {
					oracle.Position(i, s.Now())
					p := oracle.Piece(i, s.Now())
					legs[i], moving = p.End, moving || p.V != (mobility.Point{})
				}
				last := stillAt[src]
				delete(stillAt, src)
				if !moving {
					still++
					stillAt[src] = legs
				}
				switch {
				case first && got != n-1:
					t.Fatalf("frame %d at %v: the first from %d decided %d pairs, want %d", k, s.Now(), src, got, n-1)
				case !moving && last != nil && slices.Equal(last, legs):
					reused++
					if got != 0 {
						t.Fatalf("frame %d at %v from %d: %d pairs decided in a network still on the legs of the sender's last frame", k, s.Now(), src, got)
					}
				case !moving && last != nil && got == 0:
					t.Fatalf("frame %d at %v from %d: a leg ended since the sender's last frame, and no pair was decided", k, s.Now(), src)
				}
			}
			s.RunAll()
			switch {
			case c.throughout && (still != frames || m.Decisions() != uint64(len(senders)*(n-1))):
				t.Errorf("%d of %d frames still, %d decisions for %d senders; the network is still throughout", still, frames, m.Decisions(), len(senders))
			case !c.throughout && (reused < frames/10 || still == frames):
				t.Errorf("%d of %d frames still, %d reused their sender's sets; the network rests and moves", still, frames, reused)
			}
		})
	}
}

// TestAttachInvalidatesEverySendersSets attaches and detaches a node
// between frames of two senders in a static network: each frame reaches
// exactly the nodes attached when it is sent, carrier sense included, and
// the first frame of each sender after an Attach decides every pair again.
func TestAttachInvalidatesEverySendersSets(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}})
	rx2 := r.m.Receiver(2)
	for k, attached := range []bool{false, true, false, true} {
		if attached {
			r.m.Attach(2, rx2)
		} else {
			r.m.Attach(2, nil)
		}
		want := uint64(1)
		if attached {
			want = 2
		}
		for j, src := range []int{0, 1, 0, 1} {
			at := time.Duration(4*k+j) * 10 * time.Millisecond
			r.s.Run(at)
			before := r.m.Decisions()
			r.m.Transmit(src, 1000, 4*k+j)
			if got := r.m.Decisions() - before; got != want && j < 2 || got != 0 && j >= 2 {
				t.Errorf("round %d, frame %d from %d: %d pairs decided, want %d on the first frame after the Attach, 0 after", k, j, src, got, want)
			}
			r.s.Run(at + radio.PropDelay + time.Nanosecond)
			if r.m.Busy(2) != attached {
				t.Errorf("round %d, frame %d: Busy(2) = %v with node 2 attached %v", k, j, !attached, attached)
			}
			r.s.RunAll()
			if got := len(r.received[2]) > 0 && r.received[2][len(r.received[2])-1] == 4*k+j; got != attached {
				t.Errorf("round %d, frame %d: node 2 received it %v, attached %v (received %v)", k, j, got, attached, r.received[2])
			}
		}
	}
	if len(r.received[1]) != 8 || len(r.received[0]) != 8 {
		t.Errorf("nodes 0 and 1 received %v and %v, want each other's eight frames", r.received[0], r.received[1])
	}
}

// TestLinkDownChangesARestingSendersSet severs and heals a link between
// frames of one sender in a static network. The cut hides the node from
// the sender's frames, carrier sense included, without deciding any pair:
// the sets its first frame decided stand through the cut and the heal.
func TestLinkDownChangesARestingSendersSet(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}})
	for k, c := range []struct {
		down      bool
		decisions uint64
	}{{false, 2}, {false, 0}, {true, 0}, {true, 0}, {false, 0}, {false, 0}} {
		if k > 1 {
			r.m.SetLinkDown(0, 1, c.down)
		}
		at := time.Duration(k) * 10 * time.Millisecond
		r.s.Run(at)
		before := r.m.Decisions()
		r.m.Transmit(0, 1000, k)
		if got := r.m.Decisions() - before; got != c.decisions {
			t.Errorf("frame %d with the link down %v: %d pairs decided, want %d", k, c.down, got, c.decisions)
		}
		r.s.Run(at + radio.PropDelay + time.Nanosecond)
		if r.m.Busy(1) == c.down {
			t.Errorf("frame %d: Busy(1) = %v with the link down %v", k, c.down, c.down)
		}
		r.s.RunAll()
		if got := len(r.received[1]) > 0 && r.received[1][len(r.received[1])-1] == k; got == c.down {
			t.Errorf("frame %d: node 1 received it %v with the link down %v (received %v)", k, got, c.down, r.received[1])
		}
		if len(r.received[2]) != k+1 {
			t.Errorf("frame %d: node 2 received %v", k, r.received[2])
		}
	}
	if r.m.FaultStats.Blocked != 2 {
		t.Errorf("FaultStats.Blocked = %d, want 2", r.m.FaultStats.Blocked)
	}
}

// TestDeliveryFaultsKeepTheSets sends frames from every node of a static
// network with delivery faults on, then after they are cleared. Drop, dup
// and delay never change who hears a frame, so each sender decides each
// pair once for the whole run, and every frame is heard where a fault-free
// one would be: the same fault draws as radio.PerReceiver makes, which
// measures every pair of every frame.
func TestDeliveryFaultsKeepTheSets(t *testing.T) {
	const n = 30
	pts := staticPts(8, n)
	type world struct {
		s        *sim.Simulator
		m        *radio.Medium
		transmit func(src, bits int, payload any) time.Duration
		heard    []int // per node: frames it decoded before the faults were cleared
	}
	mk := func(reference bool) *world {
		w := &world{s: sim.New(), heard: make([]int, n)}
		w.m = radio.New(w.s, mobility.NewStatic(pts), radio.DefaultConfig())
		w.transmit = w.m.Transmit
		if reference {
			w.transmit = w.m.PerReceiver().Transmit
		}
		for i := 0; i < n; i++ {
			w.m.Attach(i, func(int, any) { w.heard[i]++ })
		}
		w.m.SetDeliveryFaults(0.1, 0.1, 2*time.Millisecond, rng.New(9))
		return w
	}
	got, ref := mk(false), mk(true)
	r := rng.New(10)
	const frames = 600
	for k := 0; k < 2*frames; k++ {
		src, at := r.Intn(n), time.Duration(k)*5*time.Millisecond
		for _, w := range []*world{got, ref} {
			if k == frames {
				w.m.ClearDeliveryFaults()
			}
			w.s.Run(at)
			w.transmit(src, 1000, k)
		}
		if k == frames-1 {
			for _, w := range []*world{got, ref} {
				w.s.RunAll()
			}
			if got.m.Decisions() != n*(n-1) || got.m.FaultStats != ref.m.FaultStats || fmt.Sprint(got.heard) != fmt.Sprint(ref.heard) {
				t.Fatalf("with delivery faults: %d pairs decided for %d senders, faults %+v, heard %v; per receiver: faults %+v, heard %v",
					got.m.Decisions(), n, got.m.FaultStats, got.heard, ref.m.FaultStats, ref.heard)
			}
		}
	}
	got.s.RunAll()
	if got.m.Decisions() != n*(n-1) {
		t.Errorf("%d pairs decided after the faults were cleared, want still %d (each once)", got.m.Decisions(), n*(n-1))
	}
}

// TestTransmitRestingZeroAlloc pins a warm frame that copies its sender's
// sets at zero heap allocations.
func TestTransmitRestingZeroAlloc(t *testing.T) {
	s, m := benchMediumPaused(50, mobility.Forever)
	for i := 0; i < 50; i++ {
		m.Transmit(i, 4096, nil)
		s.RunAll()
	}
	decided, i := m.Decisions(), 0
	if avg := testing.AllocsPerRun(200, func() {
		m.Transmit(i%50, 4096, nil)
		s.RunAll()
		i++
	}); avg != 0 {
		t.Errorf("a warm resting medium allocates %.2f per frame, want 0", avg)
	}
	if m.Decisions() != decided {
		t.Errorf("%d pairs decided while measuring: the frames did not reuse their sets", m.Decisions()-decided)
	}
}

// TestTransmitMovingZeroAlloc pins warm frames on a moving network, 20 ms
// apart so that horizons pass and pairs are decided again, at zero heap
// allocations.
func TestTransmitMovingZeroAlloc(t *testing.T) {
	s, m := benchMedium(50)
	for i := 0; i < 50; i++ {
		m.Transmit(i, 4096, nil)
		s.RunAll()
	}
	decided, i := m.Decisions(), 0
	if avg := testing.AllocsPerRun(200, func() {
		s.Run(s.Now() + 20*time.Millisecond)
		m.Transmit(i%50, 4096, nil)
		s.RunAll()
		i++
	}); avg != 0 {
		t.Errorf("a warm moving medium allocates %.2f per frame, want 0", avg)
	}
	if got := m.Decisions() - decided; got == 0 || got >= 201*49 {
		t.Errorf("%d pairs decided in 201 frames of 49 receivers: want some, and fewer than all", got)
	}
}

// TestSetsAcrossCrossings drives scripted receivers through a sender's
// decodable and carrier-sense circles, at several offsets from its centre
// and one just inside the decodable circle's edge, and has one receiver
// jump from outside carrier sense to next to the sender in zero time.
// Frames go out 1 ms apart around each crossing, in
// both directions, and the sets are checked against the oracle at every
// one. A convoy rounds it off: a sender and receivers placed on its two
// circles, all moving at one velocity, so that along their lines the
// distances never change while the exact ones, rounded afresh at every
// frame, fall on either side of a range. mobility.Margin is what sends
// those pairs to an exact decision at every frame.
func TestSetsAcrossCrossings(t *testing.T) {
	sender := mobility.Point{X: 1000, Y: 1000}
	at := func(p mobility.Point, dx, dy float64) mobility.Point { return mobility.Point{X: p.X + dx, Y: p.Y + dy} }
	tracks := [][]mobility.ScriptLeg{{{Pos: sender}}}
	type crossing struct {
		node int
		at   time.Duration
	}
	var crossings []crossing
	// Each crossing track runs at a different speed along y = offset,
	// 700 m either side of the sender, starting at 10 s.
	for k, offset := range []float64{0, 120, 260, radio.DefaultRange - 0.1, 400, radio.DefaultCSRange - 0.1} {
		speed := 10 + 2*float64(k)
		from, to := at(sender, -700, offset), at(sender, 700, offset)
		end := 10*time.Second + time.Duration(1400/speed*float64(time.Second))
		tracks = append(tracks, []mobility.ScriptLeg{{At: 10 * time.Second, Pos: from}, {At: end, Pos: to}})
		for _, r := range []float64{radio.DefaultRange, radio.DefaultCSRange} {
			if half := r*r - offset*offset; half > 0 {
				for _, x := range []float64{-math.Sqrt(half), math.Sqrt(half)} {
					crossings = append(crossings, crossing{len(tracks) - 1, 10*time.Second + time.Duration((x+700)/speed*float64(time.Second))})
				}
			}
		}
	}
	// The jump: from 600 m out to 100 m at 70 s, then away at 15 m/s.
	jumper := len(tracks)
	tracks = append(tracks, []mobility.ScriptLeg{{Pos: at(sender, 600, 0)}, {At: 70 * time.Second, Pos: at(sender, 600, 0)},
		{At: 70 * time.Second, Pos: at(sender, 100, 0)}, {At: 100 * time.Second, Pos: at(sender, 550, 0)}})
	crossings = append(crossings, crossing{jumper, 70 * time.Second})
	for _, r := range []float64{radio.DefaultRange, radio.DefaultCSRange} {
		crossings = append(crossings, crossing{jumper, 70*time.Second + time.Duration((r-100)/15*float64(time.Second))})
	}
	// The convoy, 1000 m east and 300 m north in 100 s.
	leader := len(tracks)
	lead := mobility.Point{X: 700, Y: 2400}
	tracks = append(tracks, []mobility.ScriptLeg{{Pos: lead}, {At: 100 * time.Second, Pos: at(lead, 1000, 300)}})
	for b := 0; b < 40; b++ {
		sin, cos := math.Sincos(float64(b)*math.Pi/20 + 0.01)
		for _, r := range []float64{radio.DefaultRange, radio.DefaultCSRange} {
			p := at(lead, r*cos, r*sin)
			tracks = append(tracks, []mobility.ScriptLeg{{Pos: p}, {At: 100 * time.Second, Pos: at(p, 1000, 300)}})
		}
	}
	model, oracle := mobility.NewScript(tracks), mobility.NewScript(tracks)

	// Around each crossing, a frame from the sender every millisecond and
	// one from the crossing node half a millisecond after each.
	type frame struct {
		src int
		at  time.Duration
	}
	var frames []frame
	for _, c := range crossings {
		base := c.at.Truncate(time.Millisecond)
		for j := -4; j <= 4; j++ {
			t0 := base + time.Duration(j)*time.Millisecond
			frames = append(frames, frame{0, t0}, frame{c.node, t0 + 500*time.Microsecond})
		}
	}
	for j := 0; j < 300; j++ {
		frames = append(frames, frame{leader, 30*time.Second + time.Duration(j)*time.Millisecond})
	}
	sort.Slice(frames, func(a, b int) bool { return frames[a].at < frames[b].at })
	var srcs []int
	var ats []time.Duration
	for _, f := range frames {
		if len(ats) > 0 && f.at <= ats[len(ats)-1]+400*time.Microsecond {
			continue // two crossings close together: keep the first frame
		}
		srcs, ats = append(srcs, f.src), append(ats, f.at)
	}

	// The exact answers must change around the crossings and within the
	// convoy, or the test exercises nothing.
	changes, convoy := 0, 0
	last := map[[2]int]bool{}
	for k, src := range srcs {
		inRange, senses := oracleSets(oracle, src, ats[k])
		for i := range tracks {
			for r, set := range []map[int]bool{inRange, senses} {
				key := [2]int{src*len(tracks) + i, r}
				if prev, ok := last[key]; ok && prev != set[i] {
					if src == leader {
						convoy++
					} else {
						changes++
					}
				}
				last[key] = set[i]
			}
		}
	}
	if changes < len(crossings) || convoy < 100 {
		t.Fatalf("%d answers changed around %d crossings, %d within the convoy: the frames miss them", changes, len(crossings), convoy)
	}
	checkTransmitsAt(t, model, oracle, srcs, ats, 500)
}
