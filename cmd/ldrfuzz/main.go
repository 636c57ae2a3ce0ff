// Command ldrfuzz sweeps randomized scenarios through the conformance
// harness: every run is audited continuously for packet conservation
// (initiated == delivered + dropped + in-flight), at-most-once delivery,
// control-ledger consistency, and — for LDR — loop freedom. Each scenario
// also draws an adversary profile (Byzantine nodes that blackhole, forge
// sequence numbers, replay stale labels, or flood storms), a mobility
// model (waypoint, Manhattan grid, Gauss-Markov), a traffic pattern
// (CBR, bursty, request-response), a radio profile (uniform disk, mixed
// transmit-power classes, asym long/short — the latter two produce
// one-way links) and a placement-density profile (uniform, gradient,
// hotspot), so the fuzzer hunts for invariant breaks across the whole
// scenario-diversity matrix. Violating scenarios are greedily
// shrunk (drop flows, drop faults, drop the adversary, reset the
// diversity axes, shorten simtime) into minimal reproducers and printed as
// JSON specs ready to commit under internal/conformance/testdata/ — or,
// when the surviving ingredient is the adversary, under
// internal/adversary/testdata/.
//
//	ldrfuzz                          # 32 runs, all protocols × profiles
//	ldrfuzz -runs 200 -seed 7
//	ldrfuzz -protocols ldr,aodv -profiles reboot,mayhem -shrink=false
//	ldrfuzz -adversaries seqno-forge,byzantine -profiles none
//	ldrfuzz -runs 8 -max-nodes 20 -max-simtime 12s   # the smoke bound
//
// The sweep is deterministic in (-seed, -runs): the -workers setting
// changes neither the scenarios generated nor the findings reported.
// Exit status is 1 when any finding is reported, so the command can gate
// CI.
//
// With -journal DIR the sweep is crash-safe: completed runs are durably
// recorded, ^C prints the exact resume command, and -resume continues a
// killed campaign without re-simulating finished runs. -cell-timeout
// arms a per-run watchdog and -keep-going quarantines failing runs (with
// auto-emitted reproducers) instead of aborting the campaign.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

func main() { cli.Main(run) }

func run() error {
	shared := cli.Run{Seed: 1}
	shared.Bind(flag.CommandLine)
	var harness cli.Harness
	harness.Bind(flag.CommandLine)
	allOf := func(what string, names []string) string {
		return "comma-separated " + what + " (default: all of " + strings.Join(names, ",") + ")"
	}
	var (
		runs       = flag.Int("runs", 32, "scenarios to generate (≥ 1)")
		profiles   = flag.String("profiles", "", allOf("fault profiles", fault.ProfileNames()))
		advs       = flag.String("adversaries", "", allOf("adversary profiles", adversary.ProfileNames()))
		mobilities = flag.String("mobilities", "", allOf("mobility models to draw from", scenario.Mobilities()))
		traffics   = flag.String("traffics", "", allOf("traffic patterns to draw from", scenario.Traffics()))
		radios     = flag.String("radios", "", allOf("radio profiles to draw from", scenario.Radios()))
		densities  = flag.String("densities", "", allOf("placement-density profiles to draw from", scenario.Densities()))
		maxNodes   = flag.Int("max-nodes", 30, "node-count upper bound (≥ 8)")
		maxSimTime = flag.Duration("max-simtime", 45*time.Second, "simulated-length upper bound (≥ 5s)")
		shrink     = flag.Bool("shrink", true, "minimize findings into small reproducers")
		quiet      = flag.Bool("q", false, "suppress progress; print only the findings JSON")
	)
	if err := cli.Parse(
		"Fuzz randomized ad hoc network scenarios through the conformance\n"+
			"harness (packet conservation, at-most-once delivery, control ledgers,\n"+
			"LDR loop freedom), drawing both a fault profile and a Byzantine\n"+
			"adversary profile per scenario, and shrink any violation into a minimal\n"+
			"reproducer. Findings are printed as JSON specs for\n"+
			"internal/conformance/testdata/ (or internal/adversary/testdata/ when\n"+
			"the adversary is what survives shrinking) and make the exit status 1.",
		"ldrfuzz -runs 200 -seed 7",
		"ldrfuzz -protocols ldr -profiles mayhem -shrink=false",
		"ldrfuzz -adversaries seqno-forge,byzantine -profiles none",
		"ldrfuzz -mobilities manhattan,gaussmarkov -traffics bursty,reqresp",
		"ldrfuzz -radios mixed,asym -densities gradient,hotspot   # heterogeneous-radio hunt",
		"ldrfuzz -runs 500 -journal /tmp/fuzz.journal             # kill-safe campaign; resume with -resume",
		"ldrfuzz -journal DIR -cell-timeout 1m -keep-going        # quarantine wedged/panicking runs",
	); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1 (got %d)", *runs)
	}
	if shared.Seed == 0 {
		return errors.New("-seed must be nonzero")
	}
	if *maxNodes < 8 {
		return fmt.Errorf("-max-nodes must be at least 8 (got %d)", *maxNodes)
	}
	if *maxSimTime < 5*time.Second {
		return fmt.Errorf("-max-simtime must be at least 5s (got %v)", *maxSimTime)
	}

	var prog sweep.Progress
	opts := conformance.Options{
		Runs:       *runs,
		Seed:       shared.Seed,
		Workers:    shared.Workers,
		MaxNodes:   *maxNodes,
		MaxSimTime: *maxSimTime,
		Shrink:     *shrink,
		Progress:   &prog,
	}
	if !*quiet {
		opts.Log = cli.Logf
	}
	// Every list is resolved now, for a clean error before anything runs.
	var err error
	list := func(dst *[]string, value string, resolve func(name string) error) {
		if err == nil {
			*dst, err = cli.List(value, resolve)
		}
	}
	drawnFrom := func(flagName string, have []string) func(string) error {
		return func(name string) error {
			if !slices.Contains(have, name) {
				return fmt.Errorf("-%s: must be drawn from %v (got %q)", flagName, have, name)
			}
			return nil
		}
	}
	list(&opts.Profiles, *profiles, func(name string) error {
		if name == "none" {
			return nil
		}
		_, err := fault.Profile(name, 50, time.Minute)
		return err
	})
	list(&opts.Adversaries, *advs, func(name string) error {
		_, err := adversary.Profile(name, 50, time.Minute)
		return err
	})
	list(&opts.Mobilities, *mobilities, drawnFrom("mobilities", scenario.Mobilities()))
	list(&opts.Traffics, *traffics, drawnFrom("traffics", scenario.Traffics()))
	list(&opts.Radios, *radios, drawnFrom("radios", scenario.Radios()))
	list(&opts.Densities, *densities, drawnFrom("densities", scenario.Densities()))
	if err != nil {
		return err
	}
	if opts.Exec, err = harness.Open(); err != nil {
		return err
	}
	opts.Protocols = harness.Protocols

	findings, err := conformance.Fuzz(opts)
	err = harness.Finish("fuzz", *runs, err)
	var fs sweep.Failures
	degraded := errors.As(err, &fs)
	if err != nil && !degraded {
		return err
	}
	if !*quiet {
		cli.Logf("%d runs, %d findings", *runs, len(findings))
	}
	if len(findings) > 0 {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(findings); jerr != nil {
			return jerr
		}
		return fmt.Errorf("%d violating scenario(s) found", len(findings))
	}
	// A degraded keep-going campaign still exits nonzero: its Failures
	// error names the quarantined runs the findings above cannot cover.
	return err
}
