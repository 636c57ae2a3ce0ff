package main

import (
	"flag"
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// watch is -interval, -dest and -packets: read-only observation of a
// single run. The dumps and the trace recorder change nothing the run
// does, so the report after them is the one the unwatched run prints.
type watch struct {
	interval time.Duration
	dest     int
	packets  int

	rec   *routing.Recorder
	dumps uint64 // dump events fired: observation, not the run's own
}

func (w *watch) bind(fs *flag.FlagSet) {
	fs.DurationVar(&w.interval, "interval", 0, "dump every node's routes toward -dest, with a live loopcheck, every interval of simulated time (0 = no dumps)")
	fs.IntVar(&w.dest, "dest", 0, "destination whose successor graph -interval dumps")
	fs.IntVar(&w.packets, "packets", 0, "after the run, print the paths of the last N delivered packets (≥ 0)")
}

// validate rejects a value out of range and a flag that would do
// nothing: -dest without -interval, and observation of a -trials sweep.
func (w *watch) validate(nodes, trials int) error {
	destSet := false
	flag.Visit(func(f *flag.Flag) { destSet = destSet || f.Name == "dest" })
	switch {
	case w.interval < 0:
		return fmt.Errorf("-interval must not be negative (got %v)", w.interval)
	case w.packets < 0:
		return fmt.Errorf("-packets must be ≥ 0 (got %d)", w.packets)
	case destSet && w.interval == 0:
		return fmt.Errorf("-dest %d does nothing without -interval", w.dest)
	case w.dest < 0 || w.dest >= nodes:
		return fmt.Errorf("-dest must name a node in [0,%d) (got %d)", nodes, w.dest)
	case trials > 1 && (w.interval > 0 || w.packets > 0):
		return fmt.Errorf("-interval and -packets watch a single run; drop them or -trials %d", trials)
	}
	return nil
}

// observer installs the recorder and schedules the dumps up to until;
// nil when nothing is watched.
func (w *watch) observer(until time.Duration) scenario.Observer {
	if w.interval == 0 && w.packets == 0 {
		return nil
	}
	return func(nw *routing.Network, _ *scenario.Instruments) {
		if w.packets > 0 {
			w.rec = routing.NewRecorder(65536)
			nw.SetTracer(w.rec)
		}
		if w.interval > 0 {
			nw.Sim.Every(w.interval, w.interval, until, func() {
				w.dumps++
				w.dump(nw)
			})
		}
	}
}

// dump prints every node's valid route toward -dest and the invariant
// check at this instant.
func (w *watch) dump(nw *routing.Network) {
	now := nw.Sim.Now()
	components, reachable := connectivity(nw.Medium)
	fmt.Printf("--- t=%v routes toward node %d (graph: %d components, %.0f%% pairs reachable) ---\n",
		now.Round(time.Millisecond), w.dest, components, 100*reachable)
	printSuccessors(nw, routing.NodeID(w.dest))
	if vs := loopcheck.Check(nw.Nodes); len(vs) > 0 {
		for _, v := range vs {
			fmt.Println("  INVARIANT VIOLATION:", v)
		}
	} else {
		fmt.Println("  invariants: OK (loop-free, ordering criterion holds)")
	}
}

// connectivity returns the medium's graph of usable links at this
// instant — pairs that can decode each other, so a one-way pair is no
// link — as its number of connected components and the fraction of
// ordered node pairs that share one: an upper bound on any protocol's
// delivery ratio for uniformly chosen flows.
func connectivity(m *radio.Medium) (components int, reachable float64) {
	n := m.Model().NumNodes()
	if n < 2 {
		return n, 1
	}
	seen := make([]bool, n)
	var queue, nbrs []int
	pairs := 0
	for start := range seen {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = append(queue[:0], start)
		for k := 0; k < len(queue); k++ {
			nbrs = m.NeighborsAppend(queue[k], nbrs[:0])
			for _, nb := range nbrs {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		pairs += len(queue) * (len(queue) - 1)
		components++
	}
	return components, float64(pairs) / float64(n*(n-1))
}

// printPaths reconstructs and prints the hop sequences of the last
// -packets delivered packets from the trace recorder.
func (w *watch) printPaths() {
	if w.rec == nil {
		return
	}
	fmt.Printf("--- last %d delivered packet paths ---\n", w.packets)
	evs := w.rec.Events()
	printed := 0
	seen := make(map[[2]uint64]bool)
	for i := len(evs) - 1; i >= 0 && printed < w.packets; i-- {
		ev := evs[i]
		if ev.Kind != routing.TraceDeliver {
			continue
		}
		key := [2]uint64{uint64(ev.Src), ev.ID}
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Printf("  %d->%d pkt %d: %v\n", ev.Src, ev.Dst, ev.ID, w.rec.PacketPath(ev.Src, ev.ID))
		printed++
	}
	if w.rec.Evicted() > 0 {
		fmt.Printf("  (%d older events evicted from the trace buffer)\n", w.rec.Evicted())
	}
}

// printSuccessors prints every node's valid route toward dest, in node
// order, with LDR's feasible distance where the protocol has one.
func printSuccessors(nw *routing.Network, dest routing.NodeID) {
	rows := 0
	for _, n := range nw.Nodes {
		snap, ok := n.Protocol().(routing.TableSnapshotter)
		if !ok {
			continue
		}
		for _, e := range snap.SnapshotTable() {
			if e.Dst != dest || !e.Valid {
				continue
			}
			fd := ""
			if e.FD > 0 {
				fd = fmt.Sprintf("  fd %2d", e.FD)
			}
			fmt.Printf("  node %3d -> next %3d  dist %2d%s  sn %d\n", n.ID(), e.Next, e.Metric, fd, e.SeqNo)
			rows++
		}
	}
	if rows == 0 {
		fmt.Println("  (no valid routes)")
	}
}
