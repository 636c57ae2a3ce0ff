package traffic_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/traffic"
)

// sinkProtocol swallows all packets, recording originations.
type sinkProtocol struct {
	originated []*routing.DataPacket
}

func (p *sinkProtocol) Start()                                         {}
func (p *sinkProtocol) Stop()                                          {}
func (p *sinkProtocol) HandleControl(routing.NodeID, routing.Message)  {}
func (p *sinkProtocol) HandleData(routing.NodeID, *routing.DataPacket) {}
func (p *sinkProtocol) Originate(pkt *routing.DataPacket)              { p.originated = append(p.originated, pkt) }

func testNetwork(n int) (*routing.Network, []*sinkProtocol) {
	var sinks []*sinkProtocol
	nw := routing.NewNetwork(n, mobility.Line(n, 100), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			s := &sinkProtocol{}
			sinks = append(sinks, s)
			return s
		})
	return nw, sinks
}

func TestOfferedLoadMatchesConfiguration(t *testing.T) {
	nw, sinks := testNetwork(10)
	cfg := traffic.Config{Flows: 5, Stop: 60 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(2))
	gen.Start()
	nw.Sim.Run(60 * time.Second)

	var total int
	for _, s := range sinks {
		total += len(s.originated)
	}
	// 5 flows × 4 pkt/s × ~59 s ≈ 1180 packets. Flow-restart gaps lose a
	// few; anything within 10% is a correct offered load.
	want := 1180.0
	if float64(total) < want*0.9 || float64(total) > want*1.1 {
		t.Fatalf("originated %d packets, want ≈ %.0f", total, want)
	}
	if nw.Collector.DataInitiated != uint64(total) {
		t.Fatalf("collector counted %d initiated, protocols saw %d",
			nw.Collector.DataInitiated, total)
	}
}

func TestFlowsNeverSendToSelf(t *testing.T) {
	nw, sinks := testNetwork(4)
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, traffic.Config{Flows: 8, Stop: 120 * time.Second}, rng.New(3))
	gen.Start()
	nw.Sim.Run(120 * time.Second)

	for id, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.Dst == routing.NodeID(id) {
				t.Fatalf("node %d originated a packet to itself", id)
			}
			if pkt.Src != routing.NodeID(id) {
				t.Fatalf("packet src %d does not match originating node %d", pkt.Src, id)
			}
			if pkt.Bytes != 512 {
				t.Fatalf("packet size %d, want 512", pkt.Bytes)
			}
		}
	}
}

func TestNoPacketsAfterStop(t *testing.T) {
	nw, sinks := testNetwork(6)
	cfg := traffic.Config{Flows: 3, Stop: 30 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(4))
	gen.Start()
	nw.Sim.Run(90 * time.Second)

	for _, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.SentAt >= 30*time.Second {
				t.Fatalf("packet originated at %v, after the 30s stop", pkt.SentAt)
			}
		}
	}
}

// TestPatternsStopOriginatingAtStop runs the CBR generator on a second seed
// past its stop and checks that it originated traffic before the stop and
// none at or after it.
func TestPatternsStopOriginatingAtStop(t *testing.T) {
	nw, sinks := testNetwork(6)
	cfg := traffic.Config{Flows: 3, Stop: 30 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(8))
	gen.Start()
	nw.Sim.Run(90 * time.Second)

	var before int
	for _, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.SentAt >= 30*time.Second {
				t.Fatalf("packet originated at %v, after the 30s stop", pkt.SentAt)
			}
			before++
		}
	}
	if before == 0 {
		t.Fatal("originated nothing before the 30s stop")
	}
}

func TestFlowsRestartToKeepLoadConstant(t *testing.T) {
	nw, _ := testNetwork(8)
	// Thirty mean flow lifetimes, so every flow slot restarts many times.
	const stop = 30 * traffic.MeanFlowLife
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, traffic.Config{Flows: 2, Stop: stop}, rng.New(5))
	gen.Start()
	nw.Sim.Run(stop)

	if gen.FlowsStarted < 30 {
		t.Fatalf("only %d flows started over %v with a %v mean life", gen.FlowsStarted, stop, traffic.MeanFlowLife)
	}
	// Offered load must stay ≈ 2 flows × 4 pkt/s × 3000 s = 24000.
	got := float64(nw.Collector.DataInitiated)
	if got < 24000*0.85 || got > 24000*1.15 {
		t.Fatalf("initiated %v packets, want ≈ 24000 despite flow churn", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	counts := [2]uint64{}
	for trial := 0; trial < 2; trial++ {
		nw, _ := testNetwork(8)
		cfg := traffic.Config{Flows: 4, Stop: 60 * time.Second}
		gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(9))
		gen.Start()
		nw.Sim.Run(60 * time.Second)
		counts[trial] = nw.Collector.DataInitiated
	}
	if counts[0] != counts[1] {
		t.Fatalf("runs differ: %d vs %d packets", counts[0], counts[1])
	}
	if counts[0] == 0 {
		t.Fatal("originated nothing")
	}
}

// loopbackProtocol delivers every packet at its origin, so a tick runs
// the collector's whole ledger for the packet and nothing else.
type loopbackProtocol struct {
	sinkProtocol
	node *routing.Node
}

func (p *loopbackProtocol) Originate(pkt *routing.DataPacket) { p.node.DeliverLocal(pkt) }

// TestWarmCBRTickAllocatesNothing: once the flow records, the event pool,
// the packet pool and the collector's fate rows are warm, a CBR tick
// allocates nothing: the origination with its NoteInitiated, the delivery
// with its NoteDelivered, and the flow's next event. AllocsPerRun averages
// over its runs, so a fate row's rare doubling reads as zero, and an
// allocation on every tick (a closure per event, a map insertion per
// packet) reads as at least one.
func TestWarmCBRTickAllocatesNothing(t *testing.T) {
	nw := routing.NewNetwork(4, mobility.Line(4, 100), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol { return &loopbackProtocol{node: node} })
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, traffic.Config{Flows: 3, Stop: time.Hour}, rng.New(1))
	gen.Start()
	at := 30 * time.Second
	nw.Sim.Run(at)
	tick := func() {
		at += traffic.Interval
		nw.Sim.Run(at)
	}
	if n := testing.AllocsPerRun(200, tick); n != 0 {
		t.Fatalf("a warm CBR tick allocates %v times, want 0", n)
	}
	c := nw.Collector
	if c.DataInitiated < 3*4*50 || c.DataDelivered != c.DataInitiated || c.DuplicateDeliveries != 0 {
		t.Fatalf("initiated %d, delivered %d, duplicates %d: every tick should deliver its packet once",
			c.DataInitiated, c.DataDelivered, c.DuplicateDeliveries)
	}
}
