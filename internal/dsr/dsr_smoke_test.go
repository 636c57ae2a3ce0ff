package dsr_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

func chain(n int, seed int64, cfg dsr.Config) *routing.Network {
	return routing.NewNetwork(n, mobility.Line(n, 250), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return dsr.New(node, cfg)
		})
}

func TestDSRDeliversAlongChain(t *testing.T) {
	nw := chain(5, 1, dsr.DefaultConfig())
	nw.Start()
	for i := 0; i < 20; i++ {
		i := i
		nw.Sim.At(time.Duration(i)*100*time.Millisecond, func() {
			nw.Nodes[0].OriginateData(4, 512)
		})
	}
	nw.Sim.Run(10 * time.Second)

	if nw.Collector.DataDelivered < 19 {
		t.Fatalf("delivered %d of %d", nw.Collector.DataDelivered, nw.Collector.DataInitiated)
	}
}

func TestDSRDiscoversFullSourceRoute(t *testing.T) {
	nw := chain(4, 3, dsr.Draft7Config())
	nw.Start()
	nw.Sim.At(0, func() { nw.Nodes[0].OriginateData(3, 64) })

	var route []routing.NodeID
	nw.Sim.At(2*time.Second, func() {
		route = nw.Nodes[0].Protocol().(*dsr.DSR).CachedRoute(3)
	})
	nw.Sim.Run(3 * time.Second)

	want := []routing.NodeID{0, 1, 2, 3}
	if len(route) != len(want) {
		t.Fatalf("cached route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("cached route = %v, want %v", route, want)
		}
	}
}
