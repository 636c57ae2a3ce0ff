package radio_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// While no node moves, a sender's frames reuse the receiver sets its first
// frame of the rest epoch scanned. TestLazyScanMatchesBruteForce holds the
// reused sets to the oracle; these tests pin that they are reused, and what
// ends the reuse.

// TestRestingNetworkScansOncePerSenderPerEpoch drives frames through a
// static network, a waypoint network that pauses longer than the run and
// one that rests, moves and rests again. In a rest epoch a sender scans on
// its first frame only; outside one every frame scans. A network that
// rests throughout scans once per sender, the first frames at time 0
// included.
func TestRestingNetworkScansOncePerSenderPerEpoch(t *testing.T) {
	const n, frames = 50, 2000
	terrain := mobility.Terrain{Width: 1500, Height: 300}
	waypoint := func(minSpeed float64, pause time.Duration) mobility.Model {
		return mobility.NewWaypoint(n, mobility.WaypointConfig{Terrain: terrain, MinSpeed: minSpeed, MaxSpeed: 20, Pause: pause}, rng.New(4))
	}
	for _, c := range []struct {
		name       string
		model      mobility.Model
		gap        time.Duration // between the frames after the first n
		throughout bool          // the network rests for the whole run
	}{
		{"static", mobility.NewStatic(staticPts(3, n)), 10 * time.Millisecond, true},
		{"waypoint-pause-900s", waypoint(1, 900*time.Second), 450 * time.Millisecond, true},
		{"waypoint-pause-100s", waypoint(10, 100*time.Second), 500 * time.Millisecond, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			m := radio.New(s, c.model, radio.DefaultConfig())
			for i := 0; i < n; i++ {
				m.Attach(i, func(int, any) {})
			}
			r := rng.New(5)
			scanned := map[[2]uint64]bool{} // epoch and sender
			senders := map[int]bool{}
			resting := 0
			for k := 0; k < frames; k++ {
				// The first n frames go on the air together at time 0.
				if k >= n {
					s.Run(time.Duration(k-n+1) * c.gap)
				}
				src := r.Intn(n)
				senders[src] = true
				before := m.Scans()
				m.Transmit(src, 4096, nil)
				scans := m.Scans() - before
				epoch, rests := m.RestEpoch()
				want := uint64(1)
				if rests {
					resting++
					if key := [2]uint64{epoch, uint64(src)}; scanned[key] {
						want = 0
					} else {
						scanned[key] = true
					}
				}
				if scans != want {
					t.Fatalf("frame %d at %v from %d (resting %v, epoch %d): %d scans, want %d", k, s.Now(), src, rests, epoch, scans, want)
				}
			}
			s.RunAll()
			switch {
			case c.throughout && (resting != frames || m.Scans() != uint64(len(senders))):
				t.Errorf("%d of %d frames in a rest epoch, %d scans for %d senders; the network rests throughout", resting, frames, m.Scans(), len(senders))
			case !c.throughout && (resting < frames/10 || resting == frames):
				t.Errorf("%d of %d frames in a rest epoch; the network rests and moves", resting, frames)
			}
		})
	}
}

// TestAttachEndsTheRestEpoch attaches and detaches a node between frames
// of one sender in a static network: each frame reaches exactly the nodes
// attached when it is sent, carrier sense included.
func TestAttachEndsTheRestEpoch(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}})
	rx2 := r.m.Receiver(2)
	for k, attached := range []bool{false, true, false, true} {
		if attached {
			r.m.Attach(2, rx2)
		} else {
			r.m.Attach(2, nil)
		}
		at := time.Duration(k) * 10 * time.Millisecond
		r.s.Run(at)
		r.m.Transmit(0, 1000, k)
		r.s.Run(at + radio.PropDelay + time.Nanosecond)
		if r.m.Busy(2) != attached {
			t.Errorf("frame %d: Busy(2) = %v with node 2 attached %v", k, !attached, attached)
		}
		r.s.RunAll()
		if got := len(r.received[2]) > 0 && r.received[2][len(r.received[2])-1] == k; got != attached {
			t.Errorf("frame %d: node 2 received it %v, attached %v (received %v)", k, got, attached, r.received[2])
		}
		if len(r.received[1]) != k+1 {
			t.Errorf("frame %d: node 1 received %v", k, r.received[1])
		}
	}
	if got := r.m.Scans(); got != 4 {
		t.Errorf("%d scans for four frames each after an Attach, want 4", got)
	}
}

// TestLinkDownChangesARestingSendersSet severs and heals a link between
// frames of one sender in a static network. A frame scans while a link is
// cut, since a cut changes who hears it; once the link heals, the sender's
// frames reuse the sets its first frame of the epoch scanned.
func TestLinkDownChangesARestingSendersSet(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 200}, {X: 250}})
	for k, c := range []struct {
		down  bool
		scans uint64
	}{{false, 1}, {false, 0}, {true, 1}, {true, 1}, {false, 0}, {false, 0}} {
		if k > 1 {
			r.m.SetLinkDown(0, 1, c.down)
		}
		at := time.Duration(k) * 10 * time.Millisecond
		r.s.Run(at)
		before := r.m.Scans()
		r.m.Transmit(0, 1000, k)
		if got := r.m.Scans() - before; got != c.scans {
			t.Errorf("frame %d with the link down %v: %d scans, want %d", k, c.down, got, c.scans)
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

// TestDeliveryFaultsKeepTheRestEpoch sends frames from every node of a
// static network with delivery faults on, then after they are cleared.
// Drop, dup and delay never change who hears a frame, so each sender scans
// once for the whole run and every frame is heard where a fault-free one
// would be: the same fault draws as in a medium that scans every frame.
func TestDeliveryFaultsKeepTheRestEpoch(t *testing.T) {
	const n = 30
	pts := staticPts(8, n)
	far := farthest(pts, 0)
	if d := pts[0].Dist(pts[far]); d <= radio.DefaultCSRange {
		t.Fatalf("the farthest node is %.0f m away, within carrier sense", d)
	}
	type world struct {
		s     *sim.Simulator
		m     *radio.Medium
		heard []int // per node: frames it decoded before the faults were cleared
	}
	mk := func(cut bool) *world {
		w := &world{s: sim.New(), heard: make([]int, n)}
		w.m = radio.New(w.s, mobility.NewStatic(pts), radio.DefaultConfig())
		for i := 0; i < n; i++ {
			w.m.Attach(i, func(int, any) { w.heard[i]++ })
		}
		w.m.SetDeliveryFaults(0.1, 0.1, 2*time.Millisecond, rng.New(9))
		if cut {
			// A cut between two nodes out of carrier-sense range changes no
			// receiver set but keeps every frame scanning.
			w.m.SetLinkDown(0, far, true)
		}
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
			w.m.Transmit(src, 1000, k)
		}
		if k == frames-1 {
			for _, w := range []*world{got, ref} {
				w.s.RunAll()
			}
			want := ref.m.FaultStats
			want.Blocked = 0 // the cut pair, counted at each of its frames
			if got.m.Scans() != n || got.m.FaultStats != want || fmt.Sprint(got.heard) != fmt.Sprint(ref.heard) {
				t.Fatalf("with delivery faults: %d scans for %d senders, faults %+v, heard %v; a medium that scans every frame: faults %+v, heard %v",
					got.m.Scans(), n, got.m.FaultStats, got.heard, ref.m.FaultStats, ref.heard)
			}
		}
	}
	got.s.RunAll()
	if got.m.Scans() != n {
		t.Errorf("%d scans after the faults were cleared, want still %d (one per sender)", got.m.Scans(), n)
	}
	if ref.m.Scans() != 2*frames {
		t.Errorf("the medium with a link cut scanned %d of %d frames, want every one", ref.m.Scans(), 2*frames)
	}
}

// farthest returns the node farthest from node i.
func farthest(pts []mobility.Point, i int) int {
	far := i
	for j := range pts {
		if pts[i].Dist(pts[j]) > pts[i].Dist(pts[far]) {
			far = j
		}
	}
	return far
}

// TestTransmitRestingZeroAlloc pins a warm frame that reuses its sender's
// rest-epoch sets at zero heap allocations.
func TestTransmitRestingZeroAlloc(t *testing.T) {
	s, m := benchMediumPaused(50, mobility.Forever)
	for i := 0; i < 50; i++ {
		m.Transmit(i, 4096, nil)
		s.RunAll()
	}
	scans, i := m.Scans(), 0
	if avg := testing.AllocsPerRun(200, func() {
		m.Transmit(i%50, 4096, nil)
		s.RunAll()
		i++
	}); avg != 0 {
		t.Errorf("a warm resting medium allocates %.2f per frame, want 0", avg)
	}
	if m.Scans() != scans {
		t.Errorf("%d scans while measuring: the frames did not reuse their sets", m.Scans()-scans)
	}
}

// TestDetachedSenderScansEveryFrame has a detached node drive past two
// static ones and transmit at either end. A rest epoch covers the attached
// nodes only, so it says nothing about a detached sender: each of its
// frames reaches the node it is near.
func TestDetachedSenderScansEveryFrame(t *testing.T) {
	s := sim.New()
	m := radio.New(s, mobility.NewScript([][]mobility.ScriptLeg{
		{{At: 0, Pos: mobility.Point{X: 0}}, {At: 50 * time.Second, Pos: mobility.Point{X: 1000}}},
		{{Pos: mobility.Point{X: 100}}},
		{{Pos: mobility.Point{X: 900}}},
	}), radio.DefaultConfig())
	got := map[int][]int{} // frame → nodes that decoded it
	for i := 1; i < 3; i++ {
		m.Attach(i, func(_ int, payload any) { got[payload.(int)] = append(got[payload.(int)], i) })
	}
	for k, at := range []time.Duration{0, 50 * time.Second} {
		s.Run(at)
		m.Transmit(0, 1000, k)
		s.RunAll()
	}
	if len(got[0]) != 1 || got[0][0] != 1 || len(got[1]) != 1 || got[1][0] != 2 {
		t.Errorf("frames decoded by %v; want frame 0 by node 1 alone, frame 1 by node 2 alone", got)
	}
}
