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
	kind string // tx, rx, idle, after
	a, b int    // rx: sender, frame; tx and idle: frame
}

// batchWorld drives one medium with a small MAC-like load: stations kick
// off frames, defer to a busy channel through NotifyIdle and transmit from
// inside the idle callback, and some receivers answer from inside rx — so
// Transmit is re-entered from the middle of a batch, the way mac.MAC does.
type batchWorld struct {
	t        *testing.T
	s        *sim.Simulator
	m        *radio.Medium
	oracle   mobility.Model
	cfg      radio.Config
	transmit func(src, bits int, payload any) time.Duration
	faults   *rng.Source
	log      []obs
	sent     []sentFrame // indexed by frame number (the payload)
	budget   int         // answers still allowed, so the exchange terminates
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
	if senseCarrier && w.m.Busy(node) {
		w.m.NotifyIdle(node, station{w, node}, uint64(len(w.sent)))
		return
	}
	frame := len(w.sent)
	inRange, _ := oracleSets(w.oracle, w.cfg, node, w.s.Now())
	w.sent = append(w.sent, sentFrame{src: node, inRange: inRange})
	w.note(node, "tx", frame, 0)
	w.transmit(node, 800+97*(frame%11), frame)
}

func (w *batchWorld) rx(node, from int, payload any) {
	frame := payload.(int)
	w.note(node, "rx", from, frame)
	// Whatever faults and batching do, a frame is only ever decoded inside
	// its sender's decodable range at the instant it was sent.
	if tx := w.sent[frame]; tx.src != from || !tx.inRange[node] {
		w.t.Errorf("t=%v: node %d decoded frame %d from %d, sent by %d: not in the oracle's range set",
			w.s.Now(), node, frame, from, tx.src)
	}
	w.s.ScheduleTransient(0, func(any, uint64) { w.note(node, "after", frame, 0) }, nil, 0)
	if (frame+node)%4 == 0 && w.budget > 0 {
		w.budget--
		w.send(node, true)
	}
}

func newBatchWorld(t *testing.T, model, oracle mobility.Model, cfg radio.Config, seed int64, reference bool) *batchWorld {
	s := sim.New()
	w := &batchWorld{t: t, s: s, m: radio.New(s, model, cfg), oracle: oracle, cfg: cfg,
		faults: rng.New(seed), budget: 400}
	w.transmit = w.m.Transmit
	if reference {
		w.transmit = w.m.PerReceiver().Transmit
	}
	n := model.NumNodes()
	for i := 0; i < n; i++ {
		i := i
		w.m.Attach(i, func(from int, payload any) { w.rx(i, from, payload) })
	}
	w.m.SetDeliveryFaults(0.1, 0.1, 300*time.Microsecond, w.faults)

	// Bursts of kicks a few hundred microseconds apart (frames last 0.4 to
	// 0.9 ms, so they overlap, collide and queue behind each other), the
	// bursts seconds apart so that moving nodes change neighbours in between.
	// Links go down and come back between bursts.
	r := rng.New(seed + 1000)
	for burst := 0; burst < 12; burst++ {
		base := time.Duration(burst) * 1500 * time.Millisecond
		a, b, down := r.Intn(n), r.Intn(n), burst%3 != 2
		s.At(base, func() { w.m.SetLinkDown(a, b, down) })
		for k := 0; k < 25; k++ {
			// One kick in five goes out whatever the channel is doing, as a
			// MAC's ACK does: over whatever the node was receiving.
			node, senseCarrier := r.Intn(n), k%5 != 0
			s.At(base+time.Duration(r.Intn(4000))*time.Microsecond, func() { w.send(node, senseCarrier) })
		}
	}
	s.RunAll()
	return w
}

func TestBatchedDeliveryMatchesPerReceiverEvents(t *testing.T) {
	staticPts := func(seed int64, n int) []mobility.Point {
		r := rng.New(seed)
		pts := make([]mobility.Point, n)
		for i := range pts {
			pts[i] = mobility.Point{X: r.Float64() * 1800, Y: r.Float64() * 700}
		}
		return pts
	}
	type scenario struct {
		name string
		cfg  radio.Config
		pair func() (model, oracle mobility.Model) // two identical models, fresh on every call
	}
	var scenarios []scenario
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		for _, c := range []struct {
			name string
			cfg  radio.Config
		}{{"uniform", radio.DefaultConfig()}, {"mixed", mixedConfig()}} {
			scenarios = append(scenarios,
				scenario{fmt.Sprintf("static-%s-%d", c.name, seed), c.cfg, func() (model, oracle mobility.Model) {
					pts := staticPts(seed, 45)
					return mobility.NewStatic(pts), mobility.NewStatic(pts)
				}},
				scenario{fmt.Sprintf("moving-%s-%d", c.name, seed), c.cfg, func() (model, oracle mobility.Model) {
					return waypointPair(60, 20, 0, 40+seed)
				}})
		}
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			model, oracle := sc.pair()
			got := newBatchWorld(t, model, oracle, sc.cfg, 7, false)
			model, oracle = sc.pair()
			want := newBatchWorld(t, model, oracle, sc.cfg, 7, true)

			if len(got.log) != len(want.log) {
				t.Errorf("%d callbacks batched, %d with per-receiver events", len(got.log), len(want.log))
			}
			for i := 0; i < len(got.log) && i < len(want.log); i++ {
				if got.log[i] != want.log[i] {
					t.Fatalf("callback %d: batched %+v, per-receiver %+v", i, got.log[i], want.log[i])
				}
			}
			if g, w := got.faults.Draws(), want.faults.Draws(); g != w {
				t.Errorf("delivery-fault stream: %d draws batched, %d per-receiver", g, w)
			}
			if got.m.Transmissions != want.m.Transmissions || got.m.Corrupted != want.m.Corrupted ||
				got.m.FaultStats != want.m.FaultStats || got.s.Now() != want.s.Now() {
				t.Errorf("counters differ: batched tx=%d bad=%d faults=%+v end=%v, per-receiver tx=%d bad=%d faults=%+v end=%v",
					got.m.Transmissions, got.m.Corrupted, got.m.FaultStats, got.s.Now(),
					want.m.Transmissions, want.m.Corrupted, want.m.FaultStats, want.s.Now())
			}

			// The scenario must have exercised what it is there for.
			kinds := map[string]int{}
			for _, o := range got.log {
				kinds[o.kind]++
			}
			fs := got.m.FaultStats
			if kinds["rx"] == 0 || kinds["idle"] == 0 || got.m.Corrupted == 0 ||
				fs.Dropped == 0 || fs.Duplicated == 0 || fs.Delayed == 0 || fs.Blocked == 0 {
				t.Errorf("scenario too tame: callbacks %v, corrupted %d, faults %+v", kinds, got.m.Corrupted, fs)
			}
			if got.s.EventsFired() >= want.s.EventsFired() {
				t.Errorf("batched run fired %d events, per-receiver %d: nothing was batched",
					got.s.EventsFired(), want.s.EventsFired())
			}
		})
	}
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
