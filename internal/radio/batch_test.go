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

// Transmit delivers a frame to its whole receiver set in two events. These
// tests pin that this is unobservable from above the radio: everything a
// MAC can see — which callback ran at which node at which virtual time, in
// which order, and how many delivery-fault draws were spent getting there —
// equals what one start and one end event per receiver produce
// (radio.PerReceiver, the reference). The reference is also the radio's
// previous receiver scan and reception bookkeeping, so the same comparison
// pins that deciding a node from a kept position and tracking one clean
// reception per node change nothing either.

// obs is one observed callback.
type obs struct {
	at   time.Duration
	node int
	kind string // tx, rx, foreign (rx at a non-addressee), idle, after
	a, b int    // rx and foreign: sender, frame; tx and idle: frame
}

// channel is what a station sees of the medium: the medium under test or
// the per-receiver reference.
type channel interface {
	Transmit(src, bits int, payload any) time.Duration
	Busy(id int) bool
	NotifyIdle(id int, w radio.IdleWaiter, u uint64)
}

// letter is a frame for one node; a bare frame number is for everyone.
type letter struct{ frame, to int }

func (l letter) Addressee() int { return l.to }

// batchParams shapes the load of a batchWorld.
type batchParams struct {
	faults    bool // delivery faults on
	addressed int  // one frame in this many is a letter; 0, none
	deaf      int  // one kick in this many ignores carrier sense; 0, none
	bursts    int
}

// batchWorld drives one medium with a small MAC-like load: stations kick
// off frames, defer to a busy channel through NotifyIdle and transmit from
// inside the idle callback, and some receivers answer from inside rx — so
// Transmit is re-entered from the middle of a batch, the way mac.MAC does.
// A letter's addressee may also make another node that decoded it
// transmit at once, over whatever it is receiving: one the frame's end has
// already passed, or one it has not reached yet. Non-addressees ignore a
// letter, as a MAC does.
type batchWorld struct {
	t      *testing.T
	p      batchParams
	s      *sim.Simulator
	m      *radio.Medium
	ch     channel
	oracle mobility.Model
	faults *rng.Source
	log    []obs
	sent   []sentFrame // indexed by frame number
	budget int         // answers still allowed, so the exchange terminates

	// Sends at a non-addressee from inside the addressee's rx: at one the
	// frame's end had passed, and at one it had not and whose clean
	// reception of the frame was lost to it.
	passed, lost int
}

type sentFrame struct {
	src     int
	inRange map[int]bool // the oracle's decodable set at the instant of sending
}

// station is a node's IdleWaiter: the frame to send travels in u.
type station struct {
	w    *batchWorld
	node int
}

func (st station) ChannelIdle(u uint64) {
	st.w.note(st.node, "idle", int(u), 0)
	st.w.send(st.node, true)
}

func (w *batchWorld) note(node int, kind string, a, b int) {
	w.log = append(w.log, obs{at: w.s.Now(), node: node, kind: kind, a: a, b: b})
}

// send puts a new frame on the air from node, or waits for the channel
// unless told to ignore it.
func (w *batchWorld) send(node int, senseCarrier bool) {
	if senseCarrier && w.ch.Busy(node) {
		w.ch.NotifyIdle(node, station{w, node}, uint64(len(w.sent)))
		return
	}
	frame := len(w.sent)
	inRange, _ := oracleSets(w.oracle, node, w.s.Now())
	w.sent = append(w.sent, sentFrame{src: node, inRange: inRange})
	w.note(node, "tx", frame, 0)
	var payload any = frame
	if p := w.p; p.addressed > 0 && frame%p.addressed == 0 {
		payload = letter{frame, w.pick(inRange, frame, -1)}
	}
	w.ch.Transmit(node, 800+97*(frame%11), payload)
}

// pick chooses, by frame number, one of the nodes in set other than not
// (any node but not when the set has no other).
func (w *batchWorld) pick(set map[int]bool, frame, not int) int {
	var ids []int
	for i := 0; i < w.oracle.NumNodes(); i++ {
		if set[i] && i != not {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return (not + 1) % w.oracle.NumNodes()
	}
	return ids[frame%len(ids)]
}

func (w *batchWorld) rx(node, from int, payload any) {
	frame, to := 0, -1
	switch v := payload.(type) {
	case int:
		frame = v
	case letter:
		frame, to = v.frame, v.to
	}
	kind := "rx"
	if to >= 0 && to != node {
		kind = "foreign"
	}
	w.note(node, kind, from, frame)
	// Whatever faults and batching do, a frame is only ever decoded inside
	// its sender's decodable range at the instant it was sent.
	if tx := w.sent[frame]; tx.src != from || !tx.inRange[node] {
		w.t.Errorf("t=%v: node %d decoded frame %d from %d, sent by %d: not in the oracle's range set",
			w.s.Now(), node, frame, from, tx.src)
	}
	if kind == "foreign" {
		return
	}
	w.s.ScheduleTransient(0, func(any, uint64) { w.note(node, "after", frame, 0) }, nil, 0)
	if (frame+node)%4 == 0 && w.budget > 0 {
		w.budget--
		w.send(node, true)
	}
	if to == node && frame%3 != 2 && w.budget > 0 {
		w.budget--
		other := w.pick(w.sent[frame].inRange, frame/3, node)
		before := w.m.Corrupted
		w.send(other, false)
		if other < node {
			w.passed++
		} else if w.m.Corrupted > before {
			w.lost++
		}
	}
}

// newBatchWorld runs a world over model through the medium (reference
// false) or through radio.PerReceiver (reference true).
func newBatchWorld(t *testing.T, model, oracle mobility.Model, seed int64, reference bool, p batchParams) *batchWorld {
	s := sim.New()
	w := &batchWorld{t: t, p: p, s: s, m: radio.New(s, model, radio.DefaultConfig()), oracle: oracle,
		faults: rng.New(seed), budget: 400}
	w.ch = w.m
	if reference {
		w.ch = w.m.PerReceiver()
	}
	n := model.NumNodes()
	for i := 0; i < n; i++ {
		i := i
		w.m.Attach(i, func(from int, payload any) { w.rx(i, from, payload) })
	}
	if p.faults {
		w.m.SetDeliveryFaults(0.1, 0.1, 300*time.Microsecond, w.faults)
	}

	// Bursts of kicks a few hundred microseconds apart (frames last 0.4 to
	// 0.9 ms, so they overlap, collide and queue behind each other), the
	// bursts seconds apart so that moving nodes change neighbours in between.
	// Links go down and come back between bursts.
	r := rng.New(seed + 1000)
	for burst := 0; burst < p.bursts; burst++ {
		base := time.Duration(burst) * 1500 * time.Millisecond
		a, b, down := r.Intn(n), r.Intn(n), burst%3 != 2
		s.At(base, func() { w.m.SetLinkDown(a, b, down) })
		for k := 0; k < 25; k++ {
			// Some kicks go out whatever the channel is doing, as a MAC's ACK
			// does: over whatever the node was receiving.
			node, senseCarrier := r.Intn(n), p.deaf == 0 || k%p.deaf != 0
			s.At(base+time.Duration(r.Intn(4000))*time.Microsecond, func() { w.send(node, senseCarrier) })
		}
	}
	for s.Step() {
		if err := w.m.CheckSets(); err != nil {
			t.Fatalf("t=%v: %v", s.Now(), err)
		}
	}
	return w
}

// compareBatched runs the medium and the reference over two fresh
// instances of one scenario and fails on any difference a MAC could see.
// Without delivery faults the reference delivers a letter everywhere and
// the medium at its addressee alone, so the non-addressees' callbacks are
// dropped from the reference's log before comparing. With them, both make
// every clean reception's fault draws and hand a letter to its addressee
// alone, so the draw counts and FaultStats cover the foreign receptions.
func compareBatched(t *testing.T, pair func() (model, oracle mobility.Model), p batchParams) (got, want *batchWorld) {
	model, oracle := pair()
	got = newBatchWorld(t, model, oracle, 7, false, p)
	model, oracle = pair()
	want = newBatchWorld(t, model, oracle, 7, true, p)

	wantLog := want.log
	if !p.faults {
		wantLog = nil
		for _, o := range want.log {
			if o.kind != "foreign" {
				wantLog = append(wantLog, o)
			}
		}
	}
	if len(got.log) != len(wantLog) {
		t.Errorf("%d callbacks batched, %d with per-receiver events", len(got.log), len(wantLog))
	}
	for i := 0; i < len(got.log) && i < len(wantLog); i++ {
		if got.log[i] != wantLog[i] {
			t.Fatalf("callback %d: batched %+v, per-receiver %+v", i, got.log[i], wantLog[i])
		}
	}
	if g, w := got.faults.Draws(), want.faults.Draws(); g != w {
		t.Errorf("delivery-fault stream: %d draws batched, %d per-receiver", g, w)
	}
	if got.m.Transmissions != want.m.Transmissions || got.m.Corrupted != want.m.Corrupted ||
		got.m.FaultStats != want.m.FaultStats || got.s.Now() != want.s.Now() ||
		got.passed != want.passed || got.lost != want.lost {
		t.Errorf("counters differ: batched tx=%d bad=%d faults=%+v end=%v sync=%d/%d, per-receiver tx=%d bad=%d faults=%+v end=%v sync=%d/%d",
			got.m.Transmissions, got.m.Corrupted, got.m.FaultStats, got.s.Now(), got.passed, got.lost,
			want.m.Transmissions, want.m.Corrupted, want.m.FaultStats, want.s.Now(), want.passed, want.lost)
	}
	return got, want
}

func staticPts(seed int64, n int) []mobility.Point {
	r := rng.New(seed)
	// 45 nodes on 1800 m × 700 m, and the same density at any other count.
	scale := math.Sqrt(float64(n) / 45)
	pts := make([]mobility.Point, n)
	for i := range pts {
		pts[i] = mobility.Point{X: r.Float64() * 1800 * scale, Y: r.Float64() * 700 * scale}
	}
	return pts
}

func TestBatchedDeliveryMatchesPerReceiverEvents(t *testing.T) {
	type scenario struct {
		name string
		p    batchParams
		pair func() (model, oracle mobility.Model) // two identical models, fresh on every call
	}
	static := func(seed int64, n int) func() (model, oracle mobility.Model) {
		return func() (model, oracle mobility.Model) {
			pts := staticPts(seed, n)
			return mobility.NewStatic(pts), mobility.NewStatic(pts)
		}
	}
	moving := func(seed int64, n int) func() (model, oracle mobility.Model) {
		return func() (model, oracle mobility.Model) { return waypointPair(n, 20, 0, 40+seed) }
	}
	lossy := batchParams{faults: true, addressed: 2, deaf: 5, bursts: 12}
	var scenarios []scenario
	for seed := int64(1); seed <= 4; seed++ {
		scenarios = append(scenarios,
			scenario{fmt.Sprintf("static-uniform-%d", seed), lossy, static(seed, 45)},
			scenario{fmt.Sprintf("moving-uniform-%d", seed), lossy, moving(seed, 60)})
	}
	// Worlds across one and more bitset words, with delivery faults and
	// without: without them a letter ends at its addressee alone.
	for _, n := range []int{63, 64, 65, 130} {
		for _, faults := range []bool{true, false} {
			p, name := lossy, "lossy"
			if !faults {
				p.faults, name = false, "clean"
			}
			for seed := int64(1); seed <= 2; seed++ {
				scenarios = append(scenarios,
					scenario{fmt.Sprintf("static%d-%s-%d", n, name, seed), p, static(seed, n)},
					scenario{fmt.Sprintf("moving%d-%s-%d", n, name, seed), p, moving(seed, n)})
			}
		}
	}
	var passed, lost int
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got, want := compareBatched(t, sc.pair, sc.p)
			if !sc.p.faults {
				passed += got.passed
				lost += got.lost
			}

			// The scenario must have exercised what it is there for: letters
			// decoded by other nodes, as callbacks in the reference's clean
			// worlds and as draws without one in the faulted worlds.
			kinds := map[string]int{}
			for _, o := range want.log {
				kinds[o.kind]++
			}
			fs, foreign := got.m.FaultStats, want.ch.(*radio.PerReceiver).Foreign()
			if kinds["rx"] == 0 || kinds["idle"] == 0 || got.m.Corrupted == 0 || fs.Blocked == 0 ||
				!sc.p.faults && (kinds["foreign"] == 0 || foreign != 0) ||
				sc.p.faults && (kinds["foreign"] != 0 || foreign == 0 || fs.Dropped == 0 || fs.Duplicated == 0 || fs.Delayed == 0) {
				t.Errorf("scenario too tame: callbacks %v, %d foreign receptions drawn, corrupted %d, faults %+v",
					kinds, foreign, got.m.Corrupted, fs)
			}
			if got.s.EventsFired() >= want.s.EventsFired() {
				t.Errorf("batched run fired %d events, per-receiver %d: nothing was batched",
					got.s.EventsFired(), want.s.EventsFired())
			}
		})
	}
	if passed == 0 || lost == 0 {
		t.Errorf("without faults, %d sends at a non-addressee the end had passed, %d that lost a reception the end had not reached; want some of each", passed, lost)
	}
}

// FuzzBatchedDelivery lets the fuzzer choose the node count (2 to 160),
// whether the nodes move, the share of letters and of kicks that ignore
// carrier sense, and whether delivery faults are on.
func FuzzBatchedDelivery(f *testing.F) {
	f.Add(int64(1), uint8(45), uint8(2), uint8(5), true)
	f.Add(int64(2), uint8(64), uint8(1), uint8(3), false)
	f.Add(int64(3), uint8(65), uint8(3), uint8(0), false)
	f.Add(int64(4), uint8(130), uint8(2), uint8(2), true)
	f.Add(int64(5), uint8(2), uint8(1), uint8(1), false)
	f.Add(int64(6), uint8(160), uint8(0), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, nodes, addressed, deaf uint8, faults bool) {
		n := 2 + int(nodes)%159
		p := batchParams{faults: faults, addressed: int(addressed % 5), deaf: int(deaf % 7), bursts: 4}
		pair := func() (model, oracle mobility.Model) {
			pts := staticPts(seed, n)
			return mobility.NewStatic(pts), mobility.NewStatic(pts)
		}
		if seed%2 == 0 {
			pair = func() (model, oracle mobility.Model) { return waypointPair(n, 20, 0, seed) }
		}
		compareBatched(t, pair, p)
	})
}

// TestTransmitIsThreeEvents: a frame costs the queue the sender's idle
// check, one start and one end event, however many nodes hear it, and
// none of the last two when nobody does.
func TestTransmitIsThreeEvents(t *testing.T) {
	r := newRig([]mobility.Point{{X: 0}, {X: 100}, {X: 200}, {X: 400}, {X: 5000}})
	r.m.Transmit(0, 1000, "heard by three")
	r.s.RunAll()
	if got := r.s.EventsFired(); got != 3 {
		t.Errorf("a frame with three receivers fired %d events, want 3", got)
	}
	if len(r.received[1]) != 1 || len(r.received[2]) != 1 || len(r.received[3]) != 0 {
		t.Errorf("deliveries %v, want one each at the two decodable receivers", r.received)
	}
	r.m.Transmit(4, 1000, "heard by nobody")
	r.s.RunAll()
	if got := r.s.EventsFired(); got != 4 {
		t.Errorf("a frame nobody hears brought the total to %d events, want 4", got)
	}
}

// TestZeroDelayEventFromRxFiresAfterTheBatch: what a receive callback
// schedules for "now" runs once the frame has ended at every receiver —
// the order per-receiver events gave, because their sequence numbers all
// preceded anything a callback could schedule.
func TestZeroDelayEventFromRxFiresAfterTheBatch(t *testing.T) {
	pts := []mobility.Point{{X: 0}, {X: 50}, {X: 100}, {X: 150}, {X: 200}}
	s := sim.New()
	m := radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig())
	var order []string
	for i := range pts {
		i := i
		m.Attach(i, func(int, any) {
			order = append(order, fmt.Sprint("rx", i))
			s.ScheduleTransient(0, func(any, uint64) { order = append(order, fmt.Sprint("after", i)) }, nil, 0)
		})
	}
	m.Transmit(0, 1000, nil)
	s.RunAll()
	want := "[rx1 rx2 rx3 rx4 after1 after2 after3 after4]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order %v, want %v", got, want)
	}
}
