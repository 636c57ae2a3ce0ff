package core_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// lineNetwork builds an n-node chain where only adjacent nodes are in
// range, running LDR everywhere.
func lineNetwork(t *testing.T, n int, seed int64) *routing.Network {
	t.Helper()
	model := mobility.Line(n, 250) // range is 275 m; 250 m spacing → chain
	return routing.NewNetwork(n, model, mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return core.New(node, core.DefaultConfig())
		})
}

func TestLDRDeliversAlongChain(t *testing.T) {
	nw := lineNetwork(t, 5, 1)
	nw.Start()
	// Send 20 packets from node 0 to node 4 (4 hops).
	for i := 0; i < 20; i++ {
		i := i
		nw.Sim.At(time.Duration(i)*100*time.Millisecond, func() {
			nw.Nodes[0].OriginateData(4, 512)
		})
	}
	nw.Sim.Run(10 * time.Second)

	c := nw.Collector
	if c.DataInitiated != 20 {
		t.Fatalf("initiated = %d, want 20", c.DataInitiated)
	}
	if c.DataDelivered < 19 {
		t.Fatalf("delivered = %d of %d, want ≥ 19", c.DataDelivered, c.DataInitiated)
	}
	if c.ControlInitiated(1 /* RREQ */) == 0 {
		t.Fatal("no RREQ was initiated")
	}
	if got := c.MeanLatency(); got <= 0 || got > time.Second {
		t.Fatalf("mean latency = %v, want within (0, 1s]", got)
	}
}

func TestLDRInstallsShortestRoute(t *testing.T) {
	nw := lineNetwork(t, 5, 2)
	nw.Start()
	nw.Sim.Schedule(0, func() { nw.Nodes[0].OriginateData(4, 512) })

	// Inspect the table while the route is still within its lifetime.
	var (
		next routing.NodeID
		dist int
		ok   bool
	)
	nw.Sim.At(time.Second, func() {
		ldr := nw.Nodes[0].Protocol().(*core.LDR)
		next, dist, ok = ldr.RouteTo(4)
	})
	nw.Sim.Run(5 * time.Second)

	if !ok {
		t.Fatal("node 0 has no route to node 4")
	}
	if next != 1 || dist != 4 {
		t.Fatalf("route = via %d dist %d, want via 1 dist 4", next, dist)
	}
}
