package ondemand

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// stub is the least protocol that can own a Discoveries: it buffers and
// solicits on Originate, records every attempt instead of building a
// RREQ, and follows the shared ring schedule.
type stub struct {
	Discoveries
	ttls []int
	ids  []uint32
}

func (s *stub) Start()                                         {}
func (s *stub) HandleControl(routing.NodeID, routing.Message)  {}
func (s *stub) HandleData(routing.NodeID, *routing.DataPacket) {}

func (s *stub) Originate(pkt *routing.DataPacket) {
	s.Push(pkt)
	s.Solicit(pkt.Dst, TTLStart)
}

func (s *stub) SendRequest(_ routing.NodeID, d *Discovery) time.Duration {
	s.ttls = append(s.ttls, d.TTL)
	s.ids = append(s.ids, d.ID)
	return RingWait(d)
}

func (s *stub) NextAttempt(_ routing.NodeID, d *Discovery) bool {
	return NextRing(d)
}

// drops records the (destination, reason) of every drop event in order.
type drops []drop

type drop struct {
	dst    routing.NodeID
	reason routing.DropReason
}

func (d *drops) Trace(ev routing.TraceEvent) {
	if ev.Kind == routing.TraceDrop {
		*d = append(*d, drop{ev.Dst, ev.Reason})
	}
}

// isolated builds n nodes a kilometre apart — nobody hears anybody, so no
// discovery is ever answered — each running a stub, with drops traced.
func isolated(n int) (*routing.Network, []*stub, *drops) {
	stubs := make([]*stub, 0, n)
	nw := routing.NewNetwork(n, mobility.Line(n, 1000), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			s := &stub{}
			s.Discoveries = NewDiscoveries(node, s)
			stubs = append(stubs, s)
			return s
		})
	var d drops
	nw.SetTracer(&d)
	return nw, stubs, &d
}

func repeatDrop(n int, dst routing.NodeID, reason routing.DropReason) drops {
	out := make(drops, n)
	for i := range out {
		out[i] = drop{dst, reason}
	}
	return out
}

func TestRingScheduleThenGiveUp(t *testing.T) {
	nw, stubs, dropped := isolated(2)
	s := stubs[0]
	for i := 0; i < 3; i++ {
		nw.Nodes[0].OriginateData(1, 64)
	}
	nw.Sim.Run(time.Minute)

	if want := []int{2, 4, 6, 35, 35, 35}; !slices.Equal(s.ttls, want) {
		t.Errorf("attempt TTLs = %v, want %v", s.ttls, want)
	}
	if want := []uint32{1, 2, 3, 4, 5, 6}; !slices.Equal(s.ids, want) {
		t.Errorf("request IDs = %v, want a fresh one per attempt %v", s.ids, want)
	}
	if want := repeatDrop(3, 1, routing.DropNoRoute); !slices.Equal(*dropped, want) {
		t.Errorf("give-up dropped %v, want %v", *dropped, want)
	}
	if s.Len(1) != 0 {
		t.Errorf("%d packets still buffered after give-up", s.Len(1))
	}

	// The slot is free: the next packet starts a new computation.
	nw.Nodes[0].OriginateData(1, 64)
	if len(s.ttls) != 7 || s.ttls[6] != 2 || s.ids[6] != 7 {
		t.Errorf("after give-up, attempts = %v ids = %v; want a seventh at TTL 2 with ID 7", s.ttls, s.ids)
	}
}

func TestOverflowDropsHead(t *testing.T) {
	nw, stubs, dropped := isolated(2)
	for i := 0; i < MaxQueuedPerDest+2; i++ {
		nw.Nodes[0].OriginateData(1, 64)
	}
	if want := repeatDrop(2, 1, routing.DropQueueOverflow); !slices.Equal(*dropped, want) {
		t.Fatalf("overflow dropped %v, want %v", *dropped, want)
	}
	q := stubs[0].Take(1)
	if len(q) != MaxQueuedPerDest || q[0].ID != 3 || q[len(q)-1].ID != MaxQueuedPerDest+2 {
		t.Errorf("queue holds %d packets from ID %d; want the newest %d, from ID 3",
			len(q), q[0].ID, MaxQueuedPerDest)
	}
}

func TestResetDropsInOrderAndKeepsRequestIDs(t *testing.T) {
	nw, stubs, dropped := isolated(4)
	s := stubs[0]
	for _, dst := range []routing.NodeID{3, 1, 2, 3} {
		nw.Nodes[0].OriginateData(dst, 64)
	}
	s.Reset()

	want := drops{{1, routing.DropReset}, {2, routing.DropReset}, {3, routing.DropReset}, {3, routing.DropReset}}
	if !slices.Equal(*dropped, want) {
		t.Errorf("reset dropped %v, want ascending destinations %v", *dropped, want)
	}
	s.WalkHeldData(func(*routing.DataPacket) { t.Error("a packet survived the reset") })

	attempts := len(s.ttls)
	nw.Sim.Run(time.Minute)
	if len(s.ttls) != attempts {
		t.Errorf("%d attempts fired after the reset; its timers should be cancelled", len(s.ttls)-attempts)
	}

	nw.Nodes[0].OriginateData(1, 64)
	if got := s.ids[len(s.ids)-1]; got != 4 {
		t.Errorf("first request ID after reset = %d, want 4 (the counter survives a crash)", got)
	}
}

// TestStaleTimerIsNoOp: a timer that outlives its discovery finds another
// one in its slot and must neither advance nor end it.
func TestStaleTimerIsNoOp(t *testing.T) {
	nw, stubs, dropped := isolated(2)
	s := stubs[0]
	nw.Nodes[0].OriginateData(1, 64)
	d := s.running(1)
	if d == nil {
		t.Fatal("no active discovery to finish")
	}
	stale := d.ID
	s.Finish(1)
	if s.running(1) != nil {
		t.Fatal("Finish left the discovery active")
	}
	s.Finish(1) // finishing twice is a no-op
	nw.Nodes[0].OriginateData(1, 64)

	s.timeout(1, stale)
	if want := []int{2, 2}; !slices.Equal(s.ttls, want) {
		t.Errorf("attempt TTLs = %v, want %v: the replaced discovery's timer advanced its successor", s.ttls, want)
	}
	if d := s.running(1); d == nil || d.ID == stale || len(*dropped) != 0 {
		t.Errorf("the stale timer ended the running discovery (dropped %v)", *dropped)
	}
}

func TestWalkVisitsAscendingDestinations(t *testing.T) {
	nw, stubs, _ := isolated(4)
	for _, dst := range []routing.NodeID{2, 3, 1, 2} {
		nw.Nodes[0].OriginateData(dst, 64)
	}
	var got []routing.NodeID
	stubs[0].WalkHeldData(func(pkt *routing.DataPacket) { got = append(got, pkt.Dst) })
	if want := []routing.NodeID{1, 2, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("walk visited %v, want %v", got, want)
	}
}

// probe is the least control message a relay can carry.
type probe struct{}

func (*probe) Kind() metrics.ControlKind { return metrics.RREQ }
func (*probe) Size() int                 { return 24 }

// TestRelayJittersOnceAndNotAfterStop: a relay draws its delay when it is
// asked for, sends within BroadcastJitter, and sends nothing when the
// protocol stops during the wait.
func TestRelayJittersOnceAndNotAfterStop(t *testing.T) {
	nw, stubs, _ := isolated(2)
	sent := func() uint64 { return nw.Collector.ControlTransmitted(metrics.RREQ) }
	rng := nw.Nodes[0].RNG()
	before := rng.Draws()
	stubs[0].Relay(&probe{})
	if got := rng.Draws() - before; got != 1 || sent() != 0 {
		t.Fatalf("asking for a relay drew %d numbers and sent %d messages, want 1 and 0", got, sent())
	}
	nw.Sim.Run(BroadcastJitter)
	if sent() != 1 {
		t.Fatalf("%d messages sent within BroadcastJitter, want 1", sent())
	}
	stubs[1].Relay(&probe{})
	stubs[1].Stop()
	nw.Sim.Run(time.Second)
	if sent() != 1 {
		t.Errorf("a protocol stopped during the wait relayed anyway")
	}
}

// TestDiscoveryStateIgnoresMapOrder: buffered data and discoveries for
// several destinations, added out of order, encode to one byte string
// every time; no map iteration order may enter the model-state encoding.
func TestDiscoveryStateIgnoresMapOrder(t *testing.T) {
	nw, stubs, _ := isolated(5)
	for _, dst := range []routing.NodeID{3, 1, 4, 2, 3} {
		nw.Nodes[0].OriginateData(dst, 64)
	}
	want := stubs[0].AppendDiscoveryState(nil)
	for i := 0; i < 16; i++ {
		if got := stubs[0].AppendDiscoveryState(nil); !bytes.Equal(got, want) {
			t.Fatalf("one state encodes to %x and to %x", want, got)
		}
	}
}

// TestPushTakeAllocations: filling a destination's queue and taking it
// allocates only the queue slice's own growth (1, 2, 4, 8, 16 slots), as
// the per-protocol buffers it replaced did.
func TestPushTakeAllocations(t *testing.T) {
	_, stubs, _ := isolated(2)
	s := stubs[0]
	pkts := make([]*routing.DataPacket, MaxQueuedPerDest)
	for i := range pkts {
		pkts[i] = &routing.DataPacket{Dst: 1, ID: uint64(i + 1)}
	}
	cycle := func() {
		for _, pkt := range pkts {
			s.Push(pkt)
		}
		if len(s.Take(1)) != len(pkts) {
			t.Fatal("queue lost a packet")
		}
	}
	cycle() // warm: the destination map exists from here on
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 5 {
		t.Errorf("a warm fill-and-take cycle made %.0f allocations, want at most the 5 of slice growth", allocs)
	}
}

// TestFlushGivesStorageBack: a queue flushed with nothing pushed back
// keeps its storage, so a warm fill-and-flush cycle allocates nothing,
// where fill-and-take pays the slice's growth every time. A send that
// pushes back two packets for each it gets still gets every packet of the
// old queue, in order, and leaves exactly what it pushed: the storage is
// not handed back while it runs, or the pushes would overwrite packets not
// yet sent.
func TestFlushGivesStorageBack(t *testing.T) {
	_, stubs, _ := isolated(2)
	s := stubs[0]
	pkts := make([]*routing.DataPacket, MaxQueuedPerDest/2+MaxQueuedPerDest)
	for i := range pkts {
		pkts[i] = &routing.DataPacket{Dst: 1, ID: uint64(i + 1)}
	}
	old, back := pkts[:MaxQueuedPerDest/2], pkts[MaxQueuedPerDest/2:]
	fill := func() {
		for _, pkt := range old {
			s.Push(pkt)
		}
	}
	fill()
	s.Flush(1, func(*routing.DataPacket) {})
	if allocs := testing.AllocsPerRun(50, func() {
		fill()
		s.Flush(1, func(*routing.DataPacket) {})
	}); allocs != 0 {
		t.Errorf("a warm fill-and-flush cycle made %.0f allocations, want 0", allocs)
	}

	fill()
	var sent []*routing.DataPacket
	s.Flush(1, func(pkt *routing.DataPacket) {
		n := len(sent)
		sent = append(sent, pkt)
		s.Push(back[2*n])
		s.Push(back[2*n+1])
	})
	if !slices.Equal(sent, old) {
		t.Errorf("flush sent %v, want the queue's %v in order", ids(sent), ids(old))
	}
	if q := s.Take(1); !slices.Equal(q, back) {
		t.Errorf("after the flush the queue holds %v, want the %v pushed back", ids(q), ids(back))
	}
}

func ids(pkts []*routing.DataPacket) []uint64 {
	out := make([]uint64, len(pkts))
	for i, pkt := range pkts {
		out[i] = pkt.ID
	}
	return out
}
