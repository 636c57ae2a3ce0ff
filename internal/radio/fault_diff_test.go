package radio_test

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// A delayed delivery is a pooled record on a transient event, registered
// in a slice. These tests pin that this is unobservable from above the
// radio: the receiver callbacks, the fault counters, the packet census and
// the payload reference counts equal what one closure per delayed copy and
// a map registry produce (radio.ReferenceFaults, the hook as it was).

// beacon is a reference-counted payload of the test's own, sent straight
// onto the medium; the MACs ignore it, the fault hook does not.
type beacon struct {
	id   int
	refs int
}

func (b *beacon) Ref()   { b.refs++ }
func (b *beacon) Unref() { b.refs-- }

// describe names a payload the same way in both worlds, where the
// pointers differ.
func describe(payload any) string {
	if b, ok := payload.(*beacon); ok {
		return fmt.Sprint("beacon", b.id)
	}
	if p, ok := mac.DataPayload(payload); ok {
		return fmt.Sprint("data", p)
	}
	return "mac-control"
}

type rxObs struct {
	at       time.Duration
	dst      int
	from     int
	payload  string
	released int // frames released so far: a MAC frame is recycled at the same point
}

// faultWorld is a small network of real MACs under delivery faults, with
// a script of sends, beacons, detaches, fault switches and MAC resets.
type faultWorld struct {
	s        *sim.Simulator
	m        *radio.Medium
	ref      *radio.ReferenceFaults // nil in the world under test
	log      []rxObs
	census   []map[string]int // the pending multiset at each sampling instant
	beacons  []*beacon
	released map[*mac.Frame]int
	sent     int
}

func (w *faultWorld) FrameSent(*mac.Frame)       {}
func (w *faultWorld) FrameFailed(*mac.Frame)     {}
func (w *faultWorld) FrameReleased(f *mac.Frame) { w.released[f]++ }

func (w *faultWorld) forEachPending(fn func(any)) {
	if w.ref != nil {
		w.ref.ForEachPendingDelivery(fn)
		return
	}
	w.m.ForEachPendingDelivery(fn)
}

func newFaultWorld(seed int64, reference bool) *faultWorld {
	const n = 10
	r := rng.New(seed)
	pts := make([]mobility.Point, n)
	for i := range pts {
		pts[i] = mobility.Point{X: r.Float64() * 700, Y: r.Float64() * 300}
	}
	s := sim.New()
	w := &faultWorld{s: s, m: radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig()), released: map[*mac.Frame]int{}}
	if reference {
		w.ref = w.m.UseReferenceFaults()
	}
	macs := make([]*mac.MAC, n)
	taps := make([]radio.ReceiverFunc, n)
	for i := range macs {
		i := i
		macs[i] = mac.New(i, s, w.m, mac.DefaultConfig(), r.Split(fmt.Sprint("mac", i)), func(int, *mac.Frame) {})
		inner := w.m.Receiver(i)
		taps[i] = func(from int, payload any) {
			w.log = append(w.log, rxObs{s.Now(), i, from, describe(payload), len(w.released)})
			inner(from, payload)
		}
		w.m.Attach(i, taps[i])
	}
	faults := r.Split("faults")
	lossy := func() { w.m.SetDeliveryFaults(0.1, 0.15, 4*time.Millisecond, faults) }
	lossy()

	const span = 400 // script length, ms
	at := func() time.Duration { return time.Duration(r.Intn(span*1000)) * time.Microsecond }
	for k := 0; k < 600; k++ {
		from, to, id := r.Intn(n), r.Intn(n), k
		if to == from || k%3 == 0 {
			to = mac.BroadcastAddr
		}
		s.At(at(), func() {
			w.sent++
			macs[from].Send(&mac.Frame{To: to, Bytes: 64 + 8*(id%40), Payload: id, Handler: w})
		})
	}
	for k := 0; k < 150; k++ {
		b := &beacon{id: k}
		w.beacons = append(w.beacons, b)
		from := r.Intn(n)
		s.At(at(), func() { w.m.Transmit(from, 400+b.id, b) })
	}
	for k := 0; k < 12; k++ {
		node, t := r.Intn(n), at()
		s.At(t, func() { w.m.Attach(node, nil) }) // detached with deliveries to it in flight
		s.At(t+time.Duration(1+r.Intn(6))*time.Millisecond, func() { w.m.Attach(node, taps[node]) })
	}
	for k := 0; k < 8; k++ {
		t := at()
		s.At(t, w.m.ClearDeliveryFaults) // what is already deferred still arrives
		s.At(t+time.Duration(1+r.Intn(3))*time.Millisecond, lossy)
	}
	for k := 0; k < 10; k++ {
		node := r.Intn(n)
		s.At(at(), macs[node].Reset)
	}
	for k := 0; k < 200; k++ {
		s.At(at(), func() {
			c := map[string]int{}
			w.forEachPending(func(p any) { c[describe(p)]++ })
			w.census = append(w.census, c)
		})
	}
	s.RunAll()
	return w
}

func TestPooledDelayedDeliveryMatchesClosureReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			got, want := newFaultWorld(seed, false), newFaultWorld(seed, true)

			if len(got.log) != len(want.log) {
				t.Errorf("%d receiver calls pooled, %d with closures", len(got.log), len(want.log))
			}
			for i := 0; i < len(got.log) && i < len(want.log); i++ {
				if got.log[i] != want.log[i] {
					t.Fatalf("receiver call %d: pooled %+v, closures %+v", i, got.log[i], want.log[i])
				}
			}
			if got.m.FaultStats != want.m.FaultStats || got.m.Transmissions != want.m.Transmissions ||
				got.m.Corrupted != want.m.Corrupted || got.s.Now() != want.s.Now() || got.s.EventsFired() != want.s.EventsFired() {
				t.Errorf("pooled faults=%+v tx=%d bad=%d end=%v events=%d, closures faults=%+v tx=%d bad=%d end=%v events=%d",
					got.m.FaultStats, got.m.Transmissions, got.m.Corrupted, got.s.Now(), got.s.EventsFired(),
					want.m.FaultStats, want.m.Transmissions, want.m.Corrupted, want.s.Now(), want.s.EventsFired())
			}
			held := 0
			for i := range got.census {
				if !maps.Equal(got.census[i], want.census[i]) {
					t.Fatalf("census sample %d: pooled holds %v, closures hold %v", i, got.census[i], want.census[i])
				}
				held += len(got.census[i])
			}

			// Every reference the radio took it gave back: the beacons count
			// theirs, and a MAC frame is released exactly once, which takes
			// its air frames' counts reaching zero.
			for _, w := range []*faultWorld{got, want} {
				for _, b := range w.beacons {
					if b.refs != 0 {
						t.Errorf("reference=%v: beacon %d ends with %d references", w.ref != nil, b.id, b.refs)
					}
				}
				if len(w.released) != w.sent {
					t.Errorf("reference=%v: %d frames sent, %d released", w.ref != nil, w.sent, len(w.released))
				}
				for f, k := range w.released {
					if k != 1 {
						t.Errorf("reference=%v: frame %v released %d times", w.ref != nil, f.Payload, k)
					}
				}
				w.forEachPending(func(p any) { t.Errorf("reference=%v: %s still pending after the run", w.ref != nil, describe(p)) })
			}

			// The script must have exercised what it is there for.
			fs := got.m.FaultStats
			kinds := map[string]bool{}
			for _, o := range got.log {
				kinds[o.payload[:4]] = true
			}
			if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Delayed < 100 || held == 0 || len(kinds) != 3 {
				t.Errorf("script too tame: faults %+v, %d census entries, payload kinds %v", fs, held, kinds)
			}
		})
	}
}

// TestDetachedMidDelayDropsTheDelivery: the hand-off reads the receiver
// when it fires. A node detached after the delay was drawn gets nothing,
// the payload reference is still returned, and the census is empty.
func TestDetachedMidDelayDropsTheDelivery(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 100}})
	r.m.SetDeliveryFaults(0, 0, 50*time.Millisecond, rng.New(3))
	b := &beacon{}
	air := r.m.Transmit(0, 1000, b)
	r.s.Run(air + radio.PropDelay) // the reception has ended, the hand-off is deferred
	if n := pendingCount(r.m); n != 1 || b.refs != 1 {
		t.Fatalf("after the reception: %d pending, %d references, want 1 and 1", n, b.refs)
	}
	r.m.Attach(1, nil)
	r.s.RunAll()
	if len(r.received[1]) != 0 || b.refs != 0 || pendingCount(r.m) != 0 {
		t.Errorf("detached receiver got %d frames, %d references left, %d pending; want 0, 0, 0",
			len(r.received[1]), b.refs, pendingCount(r.m))
	}
}

// TestDeferredDeliveryLeavesCensusBeforeHandOff: inside the receiver
// callback the frame is the receiver's, not the medium's — counting it in
// both places would make the packet census see it twice.
func TestDeferredDeliveryLeavesCensusBeforeHandOff(t *testing.T) {
	s := sim.New()
	m := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 100}, {X: 200}}), radio.DefaultConfig())
	m.SetDeliveryFaults(0, 0, 20*time.Millisecond, rng.New(5))
	var during []int
	for i := 0; i < 3; i++ {
		m.Attach(i, func(int, any) { during = append(during, pendingCount(m)) })
	}
	m.Transmit(1, 1000, "to both neighbours")
	s.RunAll()
	if fmt.Sprint(during) != "[1 0]" || m.FaultStats.Delayed != 2 {
		t.Errorf("pending during the two hand-offs %v with %d delayed, want [1 0] and 2", during, m.FaultStats.Delayed)
	}
}

func pendingCount(m *radio.Medium) (n int) {
	m.ForEachPendingDelivery(func(any) { n++ })
	return n
}

// TestDelayedDeliveryZeroAlloc pins the cost of a fault-delayed delivery
// on a warm medium at zero heap allocations: the record, its event and
// the registry slot are all recycled.
func TestDelayedDeliveryZeroAlloc(t *testing.T) {
	s := sim.New()
	m := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 100}, {X: 200}, {X: 250}}), radio.DefaultConfig())
	for i := 0; i < 4; i++ {
		m.Attach(i, func(int, any) {})
	}
	m.SetDeliveryFaults(0.05, 0.3, 2*time.Millisecond, rng.New(11))
	b := &beacon{}
	second := func() { m.Transmit(1, 800, b) }
	colliding := func() { m.Transmit(3, 800, b) }
	cycle := func() {
		m.Transmit(0, 800, b)
		s.Schedule(time.Millisecond, second)
		s.Schedule(time.Millisecond+100*time.Microsecond, colliding) // corrupts the second everywhere
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := m.FaultStats.Delayed
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("a warm lossy medium allocates %.2f per cycle, want 0", avg)
	}
	if m.FaultStats.Delayed-before < 200 || b.refs != 0 {
		t.Errorf("%d deliveries delayed in the measured cycles, %d references left; want hundreds and 0",
			m.FaultStats.Delayed-before, b.refs)
	}
}

// letterBeacon is a reference-counted beacon for one node.
type letterBeacon struct {
	*beacon
	to int
}

func (l letterBeacon) Addressee() int { return l.to }

// TestFaultedForeignReceptionDrawsButIsNotDelivered sends the same frames
// under the same delivery faults twice, once for node 2 and once for
// everyone. Nodes 1 and 3 decode both; their receptions of the letter draw
// exactly what their receptions of the broadcast draw, in id order, so
// node 2 sees the same copies at the same instants. But only node 2 gets a
// callback, and only its delayed copies become deferred deliveries.
func TestFaultedForeignReceptionDrawsButIsNotDelivered(t *testing.T) {
	type world struct {
		r       *rig
		faults  *rng.Source
		b       *beacon
		at2     []time.Duration // instants of node 2's callbacks
		pending int             // most deliveries deferred at once
	}
	run := func(to int) *world {
		w := &world{r: newRig([]mobility.Point{{X: 0}, {X: 100}, {X: 200}, {X: 250}}), faults: rng.New(21), b: &beacon{}}
		rx2 := w.r.m.Receiver(2)
		w.r.m.Attach(2, func(from int, payload any) {
			w.at2 = append(w.at2, w.r.s.Now())
			rx2(from, payload)
		})
		w.r.m.SetDeliveryFaults(0.1, 0.2, 3*time.Millisecond, w.faults)
		var payload any = letterBeacon{w.b, to}
		for k := 0; k < 200; k++ {
			w.r.s.At(time.Duration(k)*10*time.Millisecond, func() { w.r.m.Transmit(0, 1000, payload) })
			w.r.s.At(time.Duration(k)*10*time.Millisecond+time.Millisecond, func() { w.pending = max(w.pending, pendingCount(w.r.m)) })
		}
		w.r.s.RunAll()
		return w
	}
	letter, broadcast := run(2), run(-1)
	if len(letter.r.received[1]) != 0 || len(letter.r.received[3]) != 0 || len(broadcast.r.received[1]) == 0 || len(broadcast.r.received[3]) == 0 {
		t.Errorf("nodes 1 and 3 got %d and %d copies of the letter, %d and %d of the broadcast; want none of the letter",
			len(letter.r.received[1]), len(letter.r.received[3]), len(broadcast.r.received[1]), len(broadcast.r.received[3]))
	}
	if fmt.Sprint(letter.at2) != fmt.Sprint(broadcast.at2) || len(letter.at2) == 0 {
		t.Errorf("node 2's copies at %v for the letter, at %v for the broadcast; want the same", letter.at2, broadcast.at2)
	}
	if letter.faults.Draws() != broadcast.faults.Draws() || letter.r.m.FaultStats != broadcast.r.m.FaultStats {
		t.Errorf("letter: %d draws, faults %+v; broadcast: %d draws, faults %+v; want the same",
			letter.faults.Draws(), letter.r.m.FaultStats, broadcast.faults.Draws(), broadcast.r.m.FaultStats)
	}
	// Node 2 holds at most a duplicated pair; the broadcast defers more.
	if letter.pending > 2 || broadcast.pending <= 2 {
		t.Errorf("at most %d deliveries deferred at once for the letter, %d for the broadcast; want 2 and more", letter.pending, broadcast.pending)
	}
	if got, all := letter.r.s.EventsFired(), broadcast.r.s.EventsFired(); got >= all {
		t.Errorf("the letters fired %d events, the broadcasts %d; the foreign copies were deferred", got, all)
	}
	for _, w := range []*world{letter, broadcast} {
		if w.b.refs != 0 {
			t.Errorf("%d references left on the beacon", w.b.refs)
		}
	}
}

// TestFaultedForeignReceptionZeroAlloc pins a warm foreign reception under
// delivery faults at zero heap allocations: it draws and counts, and
// defers nothing.
func TestFaultedForeignReceptionZeroAlloc(t *testing.T) {
	s := sim.New()
	m := radio.New(s, mobility.NewStatic([]mobility.Point{{X: 0}, {X: 100}, {X: 200}, {X: 250}}), radio.DefaultConfig())
	for i := 0; i < 4; i++ {
		m.Attach(i, func(int, any) {})
	}
	m.SetDeliveryFaults(0.05, 0.3, 2*time.Millisecond, rng.New(12))
	b := &beacon{}
	var payload any = letterBeacon{b, 3}
	cycle := func() {
		m.Transmit(0, 800, payload)
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := m.FaultStats.Delayed
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("a warm foreign reception under faults allocates %.2f per frame, want 0", avg)
	}
	if m.FaultStats.Delayed-before < 400 || b.refs != 0 {
		t.Errorf("%d copies delayed in the measured frames, %d references left; want hundreds and 0",
			m.FaultStats.Delayed-before, b.refs)
	}
}
