package core_test

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// Example demonstrates the minimal LDR setup: a three-hop chain, one
// route discovery, end-to-end delivery.
func Example() {
	model := mobility.Line(4, 250) // 250 m spacing, 275 m radio range
	nw := routing.NewNetwork(4, model, mac.DefaultConfig(), 1,
		func(n *routing.Node) routing.Protocol {
			return core.New(n, core.DefaultConfig())
		})
	nw.Start()

	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		nw.Sim.At(at, func() { nw.Nodes[0].OriginateData(3, 512) })
	}
	nw.Sim.Run(2 * time.Second)

	c := nw.Collector
	fmt.Printf("delivered %d/%d\n", c.DataDelivered, c.DataInitiated)

	ldr := nw.Nodes[0].Protocol().(*core.LDR)
	_, dist, ok := ldr.RouteTo(3)
	fmt.Printf("route known: %v, %d hops\n", ok, dist)
	// Output:
	// delivered 10/10
	// route known: true, 3 hops
}
