package aodv_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

func chain(n int, seed int64) *routing.Network {
	return routing.NewNetwork(n, mobility.Line(n, 250), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol {
			return aodv.New(node)
		})
}

func TestAODVDeliversAlongChain(t *testing.T) {
	nw := chain(5, 1)
	nw.Start()
	for i := 0; i < 20; i++ {
		i := i
		nw.Sim.At(time.Duration(i)*100*time.Millisecond, func() {
			nw.Nodes[0].OriginateData(4, 512)
		})
	}
	nw.Sim.Run(10 * time.Second)

	c := nw.Collector
	if c.DataDelivered < 19 {
		t.Fatalf("delivered %d of %d", c.DataDelivered, c.DataInitiated)
	}
}

func TestAODVOriginSeqGrowsPerRREQ(t *testing.T) {
	nw := chain(3, 7)
	nw.Start()
	// Two separated discoveries (route expires in between).
	nw.Sim.At(0, func() { nw.Nodes[0].OriginateData(2, 64) })
	nw.Sim.At(8*time.Second, func() { nw.Nodes[0].OriginateData(2, 64) })
	nw.Sim.Run(15 * time.Second)

	p := nw.Nodes[0].Protocol().(*aodv.AODV)
	if p.OwnSeq() < 2 {
		t.Fatalf("own seq = %d, want ≥ 2 (one increment per RREQ)", p.OwnSeq())
	}
}
