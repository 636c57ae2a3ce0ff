// Command ldrsim runs one ad hoc network simulation and prints its
// metrics. It is the exploration tool; cmd/ldrbench regenerates the
// paper's tables and figures.
//
// Usage:
//
//	ldrsim -proto ldr -nodes 50 -flows 10 -pause 60s -simtime 300s -seed 1
//
// With -trials N (N > 1) the same scenario is run across seeds
// seed..seed+N-1, fanned out over -workers goroutines, and reported as
// one line per seed plus a mean ± 95% CI summary.
//
// Flags are validated before anything runs: nonsensical values
// (-trials 0, -workers -1, zero nodes, an unknown protocol, a stray
// positional argument) are rejected with a clear error rather than
// silently misbehaving.
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
	"syscall"
	"time"

	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/mobility"
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
	cell := cli.Cell{Proto: "ldr", Nodes: 50, Flows: 10, Pause: 60 * time.Second}
	cell.Bind(flag.CommandLine)
	var (
		width  = flag.Float64("width", 1500, "terrain width (m)")
		height = flag.Float64("height", 300, "terrain height (m)")
		speed  = flag.Float64("maxspeed", 20, "maximum node speed (m/s)")
	)
	if err := cli.Parse(
		"Run one ad hoc network simulation (or -trials seeds of it) and print\n"+
			"its metrics. cmd/ldrbench regenerates the paper's tables; cmd/ldrchaos\n"+
			"runs the fault-injection suite.",
		"ldrsim -proto ldr -nodes 50 -flows 10 -pause 60s -simtime 300s -seed 1",
		"ldrsim -proto aodv -trials 10 -workers 4",
		"ldrsim -proto ldr -mobility manhattan -traffic bursty",
		"ldrsim -proto olsr -radio asym -density gradient  # one-way links, uneven placement",
		"ldrsim -proto olsr -nodes 100 -width 2200 -height 600 -pause 0s -cpuprofile cell.pprof  # make profile-cell",
	); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if err := cell.Validate(); err != nil {
		return err
	}
	if *width <= 0 || *height <= 0 {
		return fmt.Errorf("terrain must be positive (got %.0f x %.0f m)", *width, *height)
	}
	if *speed <= 0 {
		return fmt.Errorf("-maxspeed must be positive (got %.1f)", *speed)
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

	cfg := cell.Config(shared.Seed)
	cfg.Terrain = mobility.Terrain{Width: *width, Height: *height}
	cfg.MaxSpeed = *speed
	cfg.SimTime = shared.SimTime
	shared.Axes.Apply(&cfg)

	if shared.Trials > 1 {
		return runTrials(cfg, shared.Trials, shared.Workers, ctl)
	}

	start := time.Now()
	res, err := scenario.RunWithControl(cfg, ctl)
	if err != nil {
		return err
	}
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
	fmt.Printf("sim events       %d (%.1fs wall)\n", res.Events, time.Since(start).Seconds())
	if res.Interrupted {
		fmt.Printf("INTERRUPTED      metrics cover only the simulated time reached; re-run with -seed %d for the full %v\n",
			cfg.Seed, cfg.SimTime)
	}
	return nil
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
