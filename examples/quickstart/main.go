// Quickstart: build a 10-node static network running LDR, send traffic
// across it, and read the metrics — the smallest complete use of the
// library.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. Topology: ten nodes in a line, 250 m apart. The default radio
	//    range is 275 m, so each node only hears its direct neighbors and
	//    traffic between the ends must travel nine hops.
	model := mobility.Line(10, 250)

	// 2. Network: one LDR instance per node over a shared 2 Mb/s medium.
	nw := routing.NewNetwork(10, model, mac.DefaultConfig(),
		42 /* seed */, func(n *routing.Node) routing.Protocol {
			return core.New(n, core.DefaultConfig())
		})
	nw.Start()

	// 3. Workload: node 0 sends a 512-byte packet to node 9 every 100 ms.
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		nw.Sim.At(at, func() { nw.Nodes[0].OriginateData(9, 512) })
	}

	// 4. Just after the last packet, look at node 0's route to node 9: an
	//    active route expires three seconds after its last use.
	nw.Sim.At(5*time.Second, func() {
		ldr := nw.Nodes[0].Protocol().(*core.LDR)
		if next, dist, ok := ldr.RouteTo(9); ok {
			fmt.Fprintf(w, "node 0 reaches node 9 via node %d in %d hops (fd=%d)\n",
				next, dist, ldr.FeasibleDistance(9))
		}
	})

	// 5. Run 10 simulated seconds (completes in milliseconds of real time).
	nw.Sim.Run(10 * time.Second)

	// 6. Inspect the outcome.
	c := nw.Collector
	fmt.Fprintf(w, "delivered %d of %d packets (%.1f%%)\n",
		c.DataDelivered, c.DataInitiated, 100*c.DeliveryRatio())
	fmt.Fprintf(w, "mean end-to-end latency: %v\n", c.MeanLatency().Round(time.Microsecond))
	fmt.Fprintf(w, "route discovery cost: %d RREQ + %d RREP transmissions\n",
		c.ControlTransmitted(metrics.RREQ), c.ControlTransmitted(metrics.RREP))
	return nil
}
