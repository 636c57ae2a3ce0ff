package olsr_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/routing"
)

func chain(n int, seed int64) *routing.Network {
	return routing.NewNetwork(n, mobility.Line(n, 250), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return olsr.New(node, olsr.DefaultConfig())
		})
}

func TestOLSRBuildsRoutesProactively(t *testing.T) {
	nw := chain(5, 1)
	nw.Start()
	// No data at all: after a few HELLO/TC rounds every node must know a
	// route to every other node.
	nw.Sim.Run(30 * time.Second)

	p := nw.Nodes[0].Protocol().(*olsr.OLSR)
	next, hops, ok := p.RouteTo(4)
	if !ok {
		t.Fatal("node 0 has no route to node 4")
	}
	if next != 1 || hops != 4 {
		t.Fatalf("route = via %d, %d hops; want via 1, 4 hops", next, hops)
	}
}

func TestOLSRDeliversWithoutDiscoveryDelay(t *testing.T) {
	nw := chain(5, 2)
	nw.Start()
	// Warm up the topology, then send; latency should be pure forwarding.
	for i := 0; i < 20; i++ {
		i := i
		nw.Sim.At(30*time.Second+time.Duration(i)*100*time.Millisecond, func() {
			nw.Nodes[0].OriginateData(4, 512)
		})
	}
	nw.Sim.Run(40 * time.Second)

	c := nw.Collector
	if c.DataDelivered < 19 {
		t.Fatalf("delivered %d of %d", c.DataDelivered, c.DataInitiated)
	}
	if lat := c.MeanLatency(); lat > 100*time.Millisecond {
		t.Fatalf("mean latency = %v, want < 100ms for warmed-up proactive routes", lat)
	}
	if c.ControlInitiated(4 /* Hello */) == 0 {
		t.Fatal("no HELLOs were initiated")
	}
}

func TestOLSRChainMPRSelection(t *testing.T) {
	nw := chain(3, 3)
	nw.Start()
	nw.Sim.Run(20 * time.Second)

	// The middle node is the only path between the ends, so both ends must
	// select it as MPR.
	for _, end := range []int{0, 2} {
		p := nw.Nodes[end].Protocol().(*olsr.OLSR)
		mprs := p.MPRs()
		if len(mprs) != 1 || mprs[0] != 1 {
			t.Fatalf("node %d MPRs = %v, want [1]", end, mprs)
		}
	}
}
