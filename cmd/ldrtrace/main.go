// Command ldrtrace runs a scenario while periodically dumping the global
// routing state: every node's routes toward a chosen destination, with
// LDR's (sequence number, feasible distance) labels, plus live invariant
// checking. It is the debugging companion to ldrsim.
//
//	ldrtrace -proto ldr -nodes 20 -dest 3 -interval 5s -simtime 60s
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/topology"
)

func main() { cli.Main(run) }

func run() error {
	cell := cli.Cell{Proto: "ldr", Nodes: 20, Flows: 5}
	cell.Bind(flag.CommandLine)
	var (
		simTime  = flag.Duration("simtime", 60*time.Second, "simulated duration")
		interval = flag.Duration("interval", 5*time.Second, "dump interval")
		dest     = flag.Int("dest", 0, "destination whose successor graph to dump")
		seed     = flag.Int64("seed", 1, "random seed")
		packets  = flag.Int("packets", 0, "also print the paths of the last N traced packets (≥ 0)")
	)
	if err := cli.Parse(
		"Run one scenario while periodically dumping every node's routes toward\n"+
			"-dest (with LDR's sequence-number and feasible-distance labels) and\n"+
			"checking the loop-freedom invariants live. Debugging companion to ldrsim.",
		"ldrtrace -proto ldr -nodes 20 -dest 3 -interval 5s -simtime 60s",
		"ldrtrace -proto aodv -packets 10",
	); err != nil {
		return err
	}
	if err := cell.Validate(); err != nil {
		return err
	}
	if *simTime <= 0 {
		return fmt.Errorf("-simtime must be positive (got %v)", *simTime)
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive (got %v)", *interval)
	}
	if *dest < 0 || *dest >= cell.Nodes {
		return fmt.Errorf("-dest must name a node in [0,%d) (got %d)", cell.Nodes, *dest)
	}
	if *packets < 0 {
		return fmt.Errorf("-packets must be ≥ 0 (got %d)", *packets)
	}

	cfg := cell.Config(*seed)
	cfg.SimTime = *simTime

	nw, gen, err := scenario.Build(cfg)
	if err != nil {
		return err
	}
	var rec *routing.Recorder
	if *packets > 0 {
		rec = routing.NewRecorder(65536)
		nw.SetTracer(rec)
	}
	nw.Start()
	gen.Start()

	var dump func()
	dump = func() {
		now := nw.Sim.Now()
		g := topology.SnapshotRanges(nw.Medium.Model(), now, nw.Medium.TxRanges())
		fmt.Printf("--- t=%v routes toward node %d (graph: %d components, %.0f%% pairs reachable) ---\n",
			now.Round(time.Millisecond), *dest, g.Components(), 100*g.ReachableFraction())
		printSuccessors(nw, routing.NodeID(*dest))
		if vs := loopcheck.Check(nw.Nodes); len(vs) > 0 {
			for _, v := range vs {
				fmt.Println("  INVARIANT VIOLATION:", v)
			}
		} else {
			fmt.Println("  invariants: OK (loop-free, ordering criterion holds)")
		}
		if now < cfg.SimTime {
			nw.Sim.Schedule(*interval, dump)
		}
	}
	nw.Sim.Schedule(*interval, dump)
	nw.Sim.Run(cfg.SimTime)

	if rec != nil {
		printPacketPaths(rec, *packets)
	}

	c := nw.Collector
	fmt.Printf("\ndelivery %.2f%% (%d/%d), mean latency %v\n",
		100*c.DeliveryRatio(), c.DataDelivered, c.DataInitiated,
		c.MeanLatency().Round(time.Microsecond))
	return nil
}

// printPacketPaths reconstructs and prints the hop sequences of the last
// n delivered packets from the trace recorder.
func printPacketPaths(rec *routing.Recorder, n int) {
	fmt.Printf("\n--- last %d delivered packet paths ---\n", n)
	evs := rec.Events()
	printed := 0
	seen := make(map[[2]uint64]bool)
	for i := len(evs) - 1; i >= 0 && printed < n; i-- {
		ev := evs[i]
		if ev.Kind != routing.TraceDeliver {
			continue
		}
		key := [2]uint64{uint64(ev.Src), ev.ID}
		if seen[key] {
			continue
		}
		seen[key] = true
		path := rec.PacketPath(ev.Src, ev.ID)
		fmt.Printf("  %d->%d pkt %d: %v\n", ev.Src, ev.Dst, ev.ID, path)
		printed++
	}
	if rec.Evicted() > 0 {
		fmt.Printf("  (%d older events evicted from the trace buffer)\n", rec.Evicted())
	}
}

func printSuccessors(nw *routing.Network, dest routing.NodeID) {
	type row struct {
		node routing.NodeID
		e    routing.RouteEntry
	}
	var rows []row
	for _, n := range nw.Nodes {
		snap, ok := n.Protocol().(routing.TableSnapshotter)
		if !ok {
			continue
		}
		for _, e := range snap.SnapshotTable() {
			if e.Dst == dest && e.Valid {
				rows = append(rows, row{node: n.ID(), e: e})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].node < rows[j].node })
	for _, r := range rows {
		if r.e.FD > 0 {
			fmt.Printf("  node %3d -> next %3d  dist %2d  fd %2d  sn %d\n",
				r.node, r.e.Next, r.e.Metric, r.e.FD, r.e.SeqNo)
		} else {
			fmt.Printf("  node %3d -> next %3d  dist %2d  sn %d\n",
				r.node, r.e.Next, r.e.Metric, r.e.SeqNo)
		}
	}
	if len(rows) == 0 {
		fmt.Println("  (no valid routes)")
	}
}
