// Rescue: a disaster-response network that partitions and heals.
//
// Two four-node teams work 800 m apart — far beyond radio range — linked
// only by a relay vehicle parked between them. Mid-scenario the relay
// drives away (the network partitions), then returns (the partition
// heals). The example shows LDR's failure handling end to end: link-layer
// loss detection, RERR propagation, failed expanding-ring searches while
// partitioned, and on-demand rediscovery the moment the relay returns —
// all without any sequence-number inflation at the destination. For each
// 20-second window it prints the share of the packets sent in that window
// that ever arrive: all of them before the relay leaves and after it is
// back, few while it is away.
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

const (
	teamSpacing = 200 // intra-team link length (m), below the 275 m range
	relayID     = 8
	simLen      = 120 * time.Second
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rescue:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// West team: nodes 0-3 along x=0..600. East team: nodes 4-7 along
	// x=1000..1600. The relay (node 8) bridges x=600..1000 at x=800.
	tracks := make([][]mobility.ScriptLeg, 9)
	for i := 0; i < 4; i++ {
		tracks[i] = fixed(float64(i) * teamSpacing)
	}
	for i := 4; i < 8; i++ {
		tracks[i] = fixed(1000 + float64(i-4)*teamSpacing)
	}
	// The relay holds position, leaves at t=40 s, and is back by t=80 s.
	tracks[relayID] = []mobility.ScriptLeg{
		{At: 0, Pos: mobility.Point{X: 800, Y: 0}},
		{At: 40 * time.Second, Pos: mobility.Point{X: 800, Y: 0}},
		{At: 50 * time.Second, Pos: mobility.Point{X: 800, Y: 2000}}, // gone
		{At: 70 * time.Second, Pos: mobility.Point{X: 800, Y: 2000}},
		{At: 80 * time.Second, Pos: mobility.Point{X: 800, Y: 0}}, // back
	}
	model := mobility.NewScript(tracks)

	nw := routing.NewNetwork(9, model, mac.DefaultConfig(), 7,
		func(n *routing.Node) routing.Protocol {
			return core.New(n, core.DefaultConfig())
		})
	nw.Start()

	// Node 0 (west team lead) streams status reports to node 7 (east).
	for t := time.Second; t < simLen; t += 500 * time.Millisecond {
		nw.Sim.At(t, func() { nw.Nodes[0].OriginateData(7, 256) })
	}

	// Mark 20-second windows to show the partition: the packets each one
	// originated (node 0's IDs run from 1 upward) and the control counts
	// at its end. A window's delivery is the share of its own packets that
	// were ever delivered, however late.
	type window struct {
		end               time.Duration
		lastID            uint64
		rerrs, rreqFloods uint64
	}
	var windows []window
	for end := 20 * time.Second; end <= simLen; end += 20 * time.Second {
		nw.Sim.At(end, func() {
			c := nw.Collector
			windows = append(windows, window{end, c.DataInitiated, c.ControlInitiated(metrics.RERR), c.ControlInitiated(metrics.RREQ)})
		})
	}
	nw.Sim.Run(simLen + 2*time.Second)

	var firstID uint64 = 1
	for _, win := range windows {
		var delivered uint64
		for id := firstID; id <= win.lastID; id++ {
			if nw.Collector.FateOf(0, id) == metrics.FateDelivered {
				delivered++
			}
		}
		pct := 0.0
		if n := win.lastID + 1 - firstID; n > 0 {
			pct = 100 * float64(delivered) / float64(n)
		}
		firstID = win.lastID + 1
		fmt.Fprintf(w, "t=%3.0fs  window delivery %5.1f%%  (RERRs so far: %d, RREQ floods: %d)\n",
			win.end.Seconds(), pct, win.rerrs, win.rreqFloods)
	}

	c := nw.Collector
	ldr7 := nw.Nodes[7].Protocol().(*core.LDR)
	fmt.Fprintf(w, "\noverall: %d/%d delivered (%.1f%%), mean latency %v\n",
		c.DataDelivered, c.DataInitiated, 100*c.DeliveryRatio(),
		c.MeanLatency().Round(time.Microsecond))
	fmt.Fprintf(w, "destination's own sequence number after the churn: ts=%d ctr=%d\n",
		ldr7.OwnSeq().Timestamp(), ldr7.OwnSeq().Counter())
	fmt.Fprintln(w, "(LDR resets feasible distances via the destination; the counter stays tiny.)")
	return nil
}

// fixed pins a node at (x, 0) for the whole scenario.
func fixed(x float64) []mobility.ScriptLeg {
	return []mobility.ScriptLeg{{At: 0, Pos: mobility.Point{X: x, Y: 0}}}
}
