package routing_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// echoProtocol delivers packets addressed to it and records everything.
type echoProtocol struct {
	node       *routing.Node
	controls   []routing.Message
	data       []*routing.DataPacket
	originated []*routing.DataPacket
}

func (p *echoProtocol) Start() {}
func (p *echoProtocol) Stop()  {}
func (p *echoProtocol) HandleControl(_ routing.NodeID, msg routing.Message) {
	p.controls = append(p.controls, msg)
}
func (p *echoProtocol) HandleData(_ routing.NodeID, pkt *routing.DataPacket) {
	p.data = append(p.data, pkt)
	if pkt.Dst == p.node.ID() {
		p.node.DeliverLocal(pkt)
	}
}
func (p *echoProtocol) Originate(pkt *routing.DataPacket) {
	p.originated = append(p.originated, pkt)
}

// testMsg is a minimal control message.
type testMsg struct {
	tag  int
	kind metrics.ControlKind
}

func (m testMsg) Kind() metrics.ControlKind { return m.kind }
func (m testMsg) Size() int                 { return 24 }

func build(n int) (*routing.Network, []*echoProtocol) {
	var protos []*echoProtocol
	nw := buildWith(n, func(node *routing.Node) routing.Protocol {
		p := &echoProtocol{node: node}
		protos = append(protos, p)
		return p
	})
	return nw, protos
}

func buildWith(n int, factory routing.ProtocolFactory) *routing.Network {
	return routing.NewNetwork(n, mobility.Line(n, 200), mac.DefaultConfig(), 5, factory)
}

func TestControlBroadcastReachesNeighborsOnly(t *testing.T) {
	nw, protos := build(4) // 200 m spacing: node 0 hears only node 1
	nw.Start()
	nw.Sim.Schedule(0, func() {
		nw.Nodes[0].SendControl(routing.BroadcastID, testMsg{tag: 1, kind: metrics.RREQ}, nil)
	})
	nw.Sim.RunAll()

	if len(protos[1].controls) != 1 {
		t.Fatalf("neighbor got %d control messages, want 1", len(protos[1].controls))
	}
	if len(protos[2].controls) != 0 || len(protos[3].controls) != 0 {
		t.Fatal("control broadcast leaked past radio range")
	}
	if got := nw.Collector.ControlTransmitted(metrics.RREQ); got != 1 {
		t.Fatalf("RREQ transmit count = %d, want 1", got)
	}
}

func TestControlUnicastFailureCallback(t *testing.T) {
	nw, _ := build(2)
	nw.Start()
	failed := routing.NodeID(-1)
	nw.Sim.Schedule(0, func() {
		// Node 5 does not exist on the link: MAC retries then fails.
		nw.Nodes[0].SendControl(5, testMsg{tag: 2, kind: metrics.RREP}, func(next routing.NodeID) { failed = next })
	})
	nw.Sim.RunAll()
	if failed != 5 {
		t.Fatalf("unicast control to unreachable address 5 reported failure toward %d, want 5", failed)
	}
}

func TestOriginateCountsAndStampsPackets(t *testing.T) {
	nw, protos := build(2)
	nw.Start()
	nw.Sim.At(3*time.Second, func() { nw.Nodes[0].OriginateData(1, 512) })
	nw.Sim.RunAll()

	if nw.Collector.DataInitiated != 1 {
		t.Fatalf("initiated = %d", nw.Collector.DataInitiated)
	}
	if len(protos[0].originated) != 1 {
		t.Fatal("protocol did not receive the originated packet")
	}
	pkt := protos[0].originated[0]
	if pkt.Src != 0 || pkt.Dst != 1 || pkt.Bytes != 512 || pkt.TTL != routing.DefaultTTL {
		t.Fatalf("packet fields wrong: %+v", pkt)
	}
	if pkt.SentAt != 3*time.Second {
		t.Fatalf("SentAt = %v, want 3s", pkt.SentAt)
	}
	if pkt.ID == 0 {
		t.Fatal("packet ID not assigned")
	}
}

func TestDataDeliveryAndLatencyAccounting(t *testing.T) {
	nw, protos := build(2)
	nw.Start()
	nw.Sim.Schedule(0, func() {
		pkt := &routing.DataPacket{Src: 0, Dst: 1, Bytes: 512, TTL: 8}
		nw.Nodes[0].SendData(1, pkt)
	})
	nw.Sim.RunAll()

	if len(protos[1].data) != 1 {
		t.Fatalf("destination received %d packets", len(protos[1].data))
	}
	c := nw.Collector
	if c.DataTransmitted != 1 || c.DataDelivered != 1 {
		t.Fatalf("transmitted=%d delivered=%d", c.DataTransmitted, c.DataDelivered)
	}
	if c.TotalLatency <= 0 {
		t.Fatal("latency not accumulated")
	}
}

func TestBroadcastDataCopiesAreIndependent(t *testing.T) {
	// Two receivers of the same broadcast frame must get independent
	// packet copies: mutating one (TTL, source route) must not affect the
	// other.
	nw, protos := build(3)
	// Reposition: use a 3-node rig where node 1 is between 0 and 2? Line
	// spacing 200 m means node 1 hears 0 and 2. Broadcast from node 1.
	nw.Start()
	nw.Sim.Schedule(0, func() {
		pkt := &routing.DataPacket{
			Src: 1, Dst: 2, Bytes: 100, TTL: 10,
			SourceRoute: []routing.NodeID{1, 0, 2},
		}
		nw.Nodes[1].SendData(routing.BroadcastID, pkt)
	})
	nw.Sim.RunAll()

	if len(protos[0].data) != 1 || len(protos[2].data) != 1 {
		t.Fatalf("broadcast data not delivered to both neighbors: %d, %d",
			len(protos[0].data), len(protos[2].data))
	}
	a, b := protos[0].data[0], protos[2].data[0]
	if a == b {
		t.Fatal("receivers share one packet pointer")
	}
	a.TTL = 1
	a.SourceRoute[0] = 99
	if b.TTL == 1 || b.SourceRoute[0] == 99 {
		t.Fatal("mutating one receiver's copy affected the other")
	}
}

func TestDropDataCounts(t *testing.T) {
	nw, _ := build(2)
	nw.Nodes[0].DropData(&routing.DataPacket{}, metrics.DropNoRoute)
	if nw.Collector.DataDropped != 1 {
		t.Fatal("DropData did not count")
	}
}

func TestNetworkStartStopPropagates(t *testing.T) {
	started := 0
	stopped := 0
	nw := routing.NewNetwork(3, mobility.Line(3, 200), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			return &hookProtocol{onStart: func() { started++ }, onStop: func() { stopped++ }}
		})
	nw.Start()
	nw.Stop()
	if started != 3 || stopped != 3 {
		t.Fatalf("started=%d stopped=%d, want 3/3", started, stopped)
	}
}

type hookProtocol struct {
	onStart, onStop func()
}

func (p *hookProtocol) Start()                                         { p.onStart() }
func (p *hookProtocol) Stop()                                          { p.onStop() }
func (p *hookProtocol) HandleControl(routing.NodeID, routing.Message)  {}
func (p *hookProtocol) HandleData(routing.NodeID, *routing.DataPacket) {}
func (p *hookProtocol) Originate(*routing.DataPacket)                  {}
