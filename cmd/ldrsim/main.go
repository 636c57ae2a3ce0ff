// Command ldrsim runs one ad hoc network simulation and prints its
// metrics; cmd/ldrbench regenerates the paper's tables and figures.
//
//	ldrsim -proto ldr -nodes 50 -flows 10 -pause 60s -simtime 300s -seed 1
//
// The cell is built by experiments.Options.Cell, as every ldrbench cell
// is: 2200×600 m at 100 nodes and 1500×300 m otherwise, unless -width
// and -height say otherwise. With -trials N (N > 1) it runs seeds
// seed..seed+N-1 over -workers goroutines and prints one line per seed
// plus a mean ± 95% CI summary.
//
// A single run can be watched without changing it: -interval dumps every
// node's route toward -dest (with LDR's labels) and checks loop freedom
// live, and -packets prints the last delivered packets' hop paths. The
// report after them is the unwatched run's.
//
// Flags are validated before anything runs: nonsensical values
// (-trials 0, -workers -1, zero nodes, an unknown protocol, a stray
// positional argument, a flag that would do nothing) are rejected with
// a clear error rather than silently misbehaving.
//
// ^C does not kill the simulation mid-event: the run stops at its next
// event boundary and the metrics accumulated so far are printed, with the
// seed to re-run the scenario in full. A second ^C force-kills.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/stats"
	"github.com/manetlab/ldr/internal/sweep"
)

func main() { cli.Main(run) }

func run() error {
	var shared cli.Scale
	shared.Seed, shared.Trials, shared.SimTime = 1, 1, 300*time.Second
	shared.Bind(flag.CommandLine)
	var prof cli.Profile
	prof.Bind(flag.CommandLine)
	cell := cellFlags{proto: "ldr", nodes: 50, flows: 10, pause: 60 * time.Second, maxSpeed: 20}
	cell.bind(flag.CommandLine)
	var w watch
	w.bind(flag.CommandLine)
	if err := cli.Parse(
		"Run one ad hoc network simulation (or -trials seeds of it) and print\n"+
			"its metrics, optionally dumping the routes toward -dest every -interval\n"+
			"with live loop-freedom checks. cmd/ldrbench regenerates the paper's\n"+
			"tables, and with -exp chaos or adversary runs the fault-injection or\n"+
			"Byzantine-node suite.",
		"ldrsim -proto ldr -nodes 50 -flows 10 -pause 60s -simtime 300s -seed 1",
		"ldrsim -proto aodv -trials 10 -workers 4",
		"ldrsim -proto ldr -mobility manhattan -traffic bursty",
		"ldrsim -proto olsr -radio asym -density gradient  # one-way links, uneven placement",
		"ldrsim -proto olsr -nodes 100 -pause 0s -cpuprofile cell.pprof  # make profile-cell",
		"ldrsim -proto ldr -nodes 20 -flows 5 -simtime 60s -dest 3 -interval 5s  # route dumps, live loopcheck",
		"ldrsim -proto aodv -nodes 20 -flows 5 -simtime 60s -packets 10         # the last 10 delivered paths",
	); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if err := cell.validate(); err != nil {
		return err
	}
	if err := w.validate(cell.nodes, shared.Trials); err != nil {
		return err
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	// Stop at the next event boundary on ^C/SIGTERM and report the
	// partial metrics; a second signal falls through to the default
	// (fatal) disposition.
	ctl := scenario.NewControl()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		signal.Stop(sigCh)
		fmt.Fprintf(os.Stderr, "ldrsim: %v — stopping at the next event boundary (send again to force-kill)\n", s)
		ctl.Interrupt()
	}()

	cfg := cell.config(shared)
	if shared.Trials > 1 {
		return runTrials(cfg, shared.Trials, shared.Workers, ctl)
	}

	start := time.Now()
	res, err := scenario.RunWithControl(cfg, w.observer(cfg.SimTime), ctl)
	if err != nil {
		return err
	}
	w.printPaths()
	c := res.Collector

	fmt.Printf("protocol         %s\n", cfg.Protocol)
	fmt.Printf("scenario         %d nodes, %.0fx%.0f m, %d flows, pause %v, %v sim\n",
		cfg.Nodes, cfg.Terrain.Width, cfg.Terrain.Height, cfg.Flows, cfg.PauseTime, cfg.SimTime)
	fmt.Printf("data initiated   %d\n", c.DataInitiated)
	fmt.Printf("data delivered   %d\n", c.DataDelivered)
	fmt.Printf("delivery ratio   %.2f%%\n", 100*c.DeliveryRatio())
	fmt.Printf("mean latency     %v\n", c.MeanLatency().Round(time.Microsecond))
	fmt.Printf("latency p50/p95  %v / %v (p99 %v, max %v)\n",
		c.Latency.Percentile(50), c.Latency.Percentile(95),
		c.Latency.Percentile(99), c.Latency.Max().Round(time.Millisecond))
	fmt.Printf("network load     %.3f control pkts / delivered pkt\n", c.NetworkLoad())
	fmt.Printf("rreq load        %.3f RREQ transmissions / delivered pkt\n", c.RREQLoad())
	fmt.Printf("rrep init        %.3f RREPs initiated / RREQ initiated\n", c.RREPInitPerRREQ())
	fmt.Printf("rrep recv        %.3f usable RREPs / RREQ initiated\n", c.RREPRecvPerRREQ())
	fmt.Printf("mean path length %.2f hops\n", c.MeanHops())
	if c.SeqnoCount > 0 {
		fmt.Printf("mean dest seqno  %.2f\n", c.MeanSeqno())
	}
	fmt.Printf("sim events       %d (%.1fs wall)\n", res.Events-w.dumps, time.Since(start).Seconds())
	if res.Interrupted {
		fmt.Printf("INTERRUPTED      metrics cover only the simulated time reached; re-run with -seed %d for the full %v\n",
			cfg.Seed, cfg.SimTime)
	}
	return nil
}

// cellFlags is -proto, -nodes, -flows, -pause, the terrain and -maxspeed:
// the one cell ldrsim runs.
type cellFlags struct {
	proto         string
	nodes, flows  int
	pause         time.Duration
	width, height float64 // 0: the cell's own terrain
	maxSpeed      float64
}

// cellProtocols are the names -proto's help lists. validate asks
// scenario.Factory, so a protocol registered at run time is accepted too.
var cellProtocols = []scenario.ProtocolName{
	scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7, scenario.OLSR, scenario.OLSRJ,
}

func (c *cellFlags) bind(fs *flag.FlagSet) {
	names := make([]string, len(cellProtocols))
	for i, p := range cellProtocols {
		names[i] = string(p)
	}
	fs.StringVar(&c.proto, "proto", c.proto, "routing protocol: "+strings.Join(names, "|"))
	fs.IntVar(&c.nodes, "nodes", c.nodes, "number of nodes (≥ 2)")
	fs.IntVar(&c.flows, "flows", c.flows, "concurrent CBR flows (≥ 1)")
	fs.DurationVar(&c.pause, "pause", c.pause, "random-waypoint pause time (≥ 0)")
	fs.Float64Var(&c.width, "width", 0, "terrain width (m); default the paper's for -nodes: 1500, or 2200 at 100 nodes")
	fs.Float64Var(&c.height, "height", 0, "terrain height (m); default the paper's for -nodes: 300, or 600 at 100 nodes")
	fs.Float64Var(&c.maxSpeed, "maxspeed", c.maxSpeed, "maximum node speed (m/s)")
}

func (c *cellFlags) validate() error {
	if _, err := scenario.Factory(scenario.ProtocolName(c.proto), nil); err != nil {
		return err
	}
	if c.nodes < 2 {
		return fmt.Errorf("-nodes must be at least 2 (got %d)", c.nodes)
	}
	if c.flows < 1 {
		return fmt.Errorf("-flows must be at least 1 (got %d)", c.flows)
	}
	if c.pause < 0 {
		return fmt.Errorf("-pause must not be negative (got %v)", c.pause)
	}
	if c.width < 0 || c.height < 0 {
		return fmt.Errorf("-width and -height must not be negative (got %.0f x %.0f m; 0 is the cell's own)", c.width, c.height)
	}
	if c.maxSpeed <= 0 {
		return fmt.Errorf("-maxspeed must be positive (got %.1f)", c.maxSpeed)
	}
	return nil
}

// config is the cell as ldrbench builds it, at the shared flags' run
// length and axes, with the terrain and speed flags applied.
func (c *cellFlags) config(s cli.Scale) scenario.Config {
	o := experiments.Options{SimTime: s.SimTime, Axes: s.Axes}
	cfg := o.Cell(scenario.ProtocolName(c.proto), c.nodes, c.flows, c.pause, s.Seed)
	if c.width > 0 {
		cfg.Terrain.Width = c.width
	}
	if c.height > 0 {
		cfg.Terrain.Height = c.height
	}
	cfg.MaxSpeed = c.maxSpeed
	return cfg
}

// runTrials runs the scenario across consecutive seeds in parallel and
// prints one line per seed plus an aggregate summary.
func runTrials(cfg scenario.Config, trials, workers int, ctl *scenario.Control) error {
	cfgs := make([]scenario.Config, trials)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + int64(i)
	}

	start := time.Now()
	results, err := sweep.Run(cfgs, sweep.Options{Workers: workers, Exec: sweep.ExecOptions{Control: ctl}})
	if err != nil {
		return err
	}

	fmt.Printf("protocol         %s\n", cfg.Protocol)
	fmt.Printf("scenario         %d nodes, %.0fx%.0f m, %d flows, pause %v, %v sim, %d trials\n",
		cfg.Nodes, cfg.Terrain.Width, cfg.Terrain.Height, cfg.Flows, cfg.PauseTime, cfg.SimTime, trials)
	fmt.Printf("%-8s %12s %12s %14s %12s\n", "seed", "delivery %", "latency ms", "net load", "events")

	var delivery, latency, load []float64
	var events uint64
	ran, interrupted := 0, false
	for _, res := range results {
		c := res.Collector
		if c == nil {
			// An interrupted sweep stops claiming seeds; unclaimed cells
			// have no result.
			continue
		}
		ran++
		interrupted = interrupted || res.Interrupted
		d := 100 * c.DeliveryRatio()
		l := float64(c.MeanLatency()) / float64(time.Millisecond)
		n := c.NetworkLoad()
		delivery, latency, load = append(delivery, d), append(latency, l), append(load, n)
		events += res.Events
		mark := ""
		if res.Interrupted {
			mark = "  (interrupted: partial)"
		}
		fmt.Printf("%-8d %12.2f %12.3f %14.3f %12d%s\n", res.Config.Seed, d, l, n, res.Events, mark)
	}
	if ran == 0 {
		return fmt.Errorf("interrupted before any trial completed; re-run with -seed %d", cfg.Seed)
	}
	sd, sl, sn := stats.Summarize(delivery), stats.Summarize(latency), stats.Summarize(load)
	fmt.Printf("%-8s %6.2f ±%4.2f %6.3f ±%4.2f %8.3f ±%4.2f\n", "mean", sd.Mean, sd.CI95, sl.Mean, sl.CI95, sn.Mean, sn.CI95)
	wall := time.Since(start).Seconds()
	fmt.Printf("sim events       %d (%.1fs wall)\n", events, wall)
	if interrupted || ran < trials {
		fmt.Printf("INTERRUPTED      %d of %d trials ran (some partial); re-run with -seed %d -trials %d for the full sweep\n",
			ran, trials, cfg.Seed, trials)
	}
	return nil
}
