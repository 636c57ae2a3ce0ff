// Coordination: the paper's §1 argument, run live.
//
// Three families of loop-free routing repair the same broken link on the
// same 16-node ring:
//
//   - DUAL (wire-line diffusing computations): the stranded region must
//     exchange query/reply rounds and freeze routes until every neighbor
//     has answered;
//   - link reversal (Gafni-Bertsekas full and partial, TORA's engine):
//     height changes cascade node by node until the graph is again
//     destination-oriented;
//   - LDR: the node that lost its successor makes a purely local decision
//     (NDC), then issues one expanding-ring discovery; nobody is frozen
//     and no multi-hop synchronization happens.
//
// The example prints each scheme's control cost for the identical event.
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"github.com/manetlab/ldr/examples/coordination/dual"
	"github.com/manetlab/ldr/examples/coordination/tora"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

const ringSize = 16

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coordination:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("Repairing the link next to the destination on a %d-node ring:\n\n", ringSize)

	// DUAL.
	s := sim.New()
	dn := dual.NewNetwork(s, ringSize, 0, time.Millisecond)
	for i := 0; i < ringSize; i++ {
		dn.AddLink(i, (i+1)%ringSize, 1)
	}
	s.RunAll()
	before := dn.TotalMessages()
	qBefore, rBefore, uBefore := dn.Messages["query"], dn.Messages["reply"], dn.Messages["update"]
	dn.RemoveLink(0, 1)
	s.RunAll()
	fmt.Printf("%-28s %4d reliable messages (%d queries, %d replies, %d updates)\n",
		"DUAL diffusing computation:", dn.TotalMessages()-before,
		dn.Messages["query"]-qBefore, dn.Messages["reply"]-rBefore, dn.Messages["update"]-uBefore)
	if err := dn.CheckLoopFree(); err != nil {
		return err
	}

	// Link reversal.
	for _, v := range []struct {
		name    string
		variant tora.Variant
	}{
		{"Full link reversal:", tora.FullReversal},
		{"Partial link reversal (TORA):", tora.PartialReversal},
	} {
		tn := tora.New(ringSize, 0, v.variant)
		for i := 0; i < ringSize; i++ {
			tn.AddLink(i, (i+1)%ringSize)
		}
		tn.Stabilize()
		rBefore := tn.Reversals
		tn.RemoveLink(0, 1)
		rounds := tn.Stabilize()
		fmt.Printf("%-28s %4d node reversals over %d cascading rounds\n",
			v.name, tn.Reversals-rBefore, rounds)
	}

	// LDR over an actual wireless ring.
	msgs, rediscoveryLatency := ldrRepair()
	fmt.Printf("%-28s %4d wireless control transmissions, traffic restored in %v\n",
		"LDR local decision + ring:", msgs, rediscoveryLatency.Round(time.Millisecond))

	fmt.Println("\nDUAL freezes the dependent subtree until every reply arrives; link")
	fmt.Println("reversal touches a cascading region; LDR's labels let every node act")
	fmt.Println("alone, over unreliable broadcasts, with the destination's sequence")
	fmt.Println("number as the only reset authority.")
	return nil
}

// ldrRepair breaks the same ring link under LDR and measures control cost
// and time-to-repair.
func ldrRepair() (uint64, time.Duration) {
	radiusChord := 250.0
	radius := radiusChord / (2 * math.Sin(math.Pi/ringSize))
	pts := make([]mobility.Point, ringSize)
	for i := range pts {
		angle := 2 * math.Pi * float64(i) / ringSize
		pts[i] = mobility.Point{X: radius + radius*math.Cos(angle), Y: radius + radius*math.Sin(angle)}
	}
	tracks := make([][]mobility.ScriptLeg, ringSize)
	for i, p := range pts {
		tracks[i] = []mobility.ScriptLeg{{At: 0, Pos: p}}
	}
	tracks[1] = []mobility.ScriptLeg{
		{At: 0, Pos: pts[1]},
		{At: 6 * time.Second, Pos: pts[1]},
		{At: 8 * time.Second, Pos: mobility.Point{X: pts[1].X, Y: pts[1].Y + 5000}},
	}
	nw := routing.NewNetwork(ringSize, mobility.NewScript(tracks),
		radio.DefaultConfig(), mac.DefaultConfig(), 5,
		func(n *routing.Node) routing.Protocol { return core.New(n, core.DefaultConfig()) })
	nw.Start()
	for ts := time.Second; ts < 20*time.Second; ts += 250 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[2].OriginateData(0, 64) })
	}
	var ctrlBefore, deliveredBefore uint64
	var breakAt, restoredAt time.Duration
	nw.Sim.At(6*time.Second, func() {
		ctrlBefore = nw.Collector.TotalControlTransmitted()
		deliveredBefore = nw.Collector.DataDelivered
		breakAt = nw.Sim.Now()
	})
	var check func()
	check = func() {
		if restoredAt == 0 && breakAt > 0 && nw.Collector.DataDelivered > deliveredBefore+8 {
			restoredAt = nw.Sim.Now()
			return
		}
		nw.Sim.Schedule(100*time.Millisecond, check)
	}
	nw.Sim.Schedule(6*time.Second, check)
	nw.Sim.Run(20 * time.Second)
	return nw.Collector.TotalControlTransmitted() - ctrlBefore, restoredAt - breakAt
}
