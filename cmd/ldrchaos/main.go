// Command ldrchaos runs the fault-injection ("chaos") suite: every
// protocol under every fault profile — node crash/reboot with volatile
// state loss, link flapping, network partitions, and lossy delivery —
// with the continuous loopcheck auditor scoring routing-loop and
// label-ordering violations throughout the run.
//
//	ldrchaos                                  # all profiles, reduced scale
//	ldrchaos -profiles reboot,mayhem -trials 5
//	ldrchaos -simtime 900s -trials 10         # the paper's full scale
//
// Profiles: none, reboot, flap, partition, lossy, mayhem. The "reboot"
// profile is the regime of van Glabbeek et al.'s AODV-loop construction:
// rebooted AODV nodes lose their sequence numbers and can pull stale
// routes into persistent loops, while LDR's persisted destination
// sequence numbers and feasible-distance labels keep its count at zero.
//
// With -adversary the suite switches from crash faults to Byzantine
// nodes: compromised nodes blackhole data, forge sequence numbers,
// replay stale labels, and flood control storms (see internal/adversary)
// while every attacked run is paired against an attack-free baseline on
// the same seed to report delivery impact and the control-amplification
// factor.
//
//	ldrchaos -adversary all
//	ldrchaos -adversary seqno-forge,storm -protocols ldr,aodv
//
// Adversary profiles: none, blackhole, grayhole, seqno-forge, replay,
// storm, byzantine.
//
// Output is deterministic: byte-identical for the same flags at any
// -workers setting.
//
// With -journal DIR the sweep is crash-safe: completed cells are durably
// recorded, ^C prints the exact resume command, and -resume continues a
// killed run to byte-identical output. -cell-timeout arms a per-cell
// watchdog and -keep-going quarantines failing cells (with auto-emitted
// reproducers) instead of aborting the whole sweep — the natural mode for
// a suite whose whole point is hostile conditions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/fault"
)

func main() { cli.Main(run) }

func run() error {
	var shared cli.Experiment
	shared.Seed, shared.Trials, shared.SimTime = 1, 3, 120*time.Second
	shared.Bind(flag.CommandLine)
	var prof cli.Profile
	prof.Bind(flag.CommandLine)
	var (
		profiles = flag.String("profiles", "", "comma-separated fault profiles (default: all of "+strings.Join(fault.ProfileNames(), ",")+")")
		adv      = flag.String("adversary", "", "run the Byzantine-node suite instead: comma-separated adversary profiles, or \"all\" for "+strings.Join(adversary.ProfileNames(), ","))
		audit    = flag.Duration("audit", 100*time.Millisecond, "invariant-audit snapshot cadence; must be > 0")
	)
	if err := cli.Parse(
		"Run the fault-injection suite: every protocol under every fault profile\n"+
			"(crash/reboot, link flapping, partitions, lossy delivery) with the\n"+
			"continuous loopcheck auditor scoring invariant violations throughout.\n"+
			"With -adversary, run the Byzantine-node suite instead: compromised nodes\n"+
			"blackhole, forge sequence numbers, replay stale labels, and flood storms,\n"+
			"each attacked run paired with an attack-free baseline on the same seed.\n"+
			"Output is byte-identical for the same flags at any -workers setting.",
		"ldrchaos -profiles reboot,mayhem -trials 5",
		"ldrchaos -protocols ldr,aodv -simtime 900s -trials 10",
		"ldrchaos -adversary all",
		"ldrchaos -adversary seqno-forge,storm -protocols ldr,aodv",
		"ldrchaos -profiles reboot -mobility manhattan -traffic bursty",
		"ldrchaos -profiles mayhem -radio mixed -density gradient  # one-way links under faults",
		"ldrchaos -journal /tmp/chaos.journal                      # kill-safe; ^C prints the resume command",
		"ldrchaos -journal /tmp/chaos.journal -resume              # continue a killed sweep",
		"ldrchaos -journal DIR -cell-timeout 2m -keep-going        # quarantine wedged/panicking cells",
		"ldrchaos -profiles lossy -protocols ldr -trials 1 -workers 1 -cpuprofile cell.pprof  # make profile-cell FAULT=lossy",
	); err != nil {
		return err
	}
	if *audit <= 0 {
		return fmt.Errorf("-audit must be positive (got %v)", *audit)
	}
	if *profiles != "" && *adv != "" {
		return errors.New("-profiles and -adversary are mutually exclusive (fault suite vs Byzantine suite)")
	}
	faultProfiles, err := cli.List(*profiles, func(name string) error {
		_, err := fault.Profile(name, 50, shared.SimTime)
		return err
	})
	if err != nil {
		return err
	}
	var advProfiles []string
	if *adv != "all" {
		advProfiles, err = cli.List(*adv, func(name string) error {
			_, err := adversary.Profile(name, 50, shared.SimTime)
			return err
		})
		if err != nil {
			return err
		}
	}
	opts, err := shared.Options()
	if err != nil {
		return err
	}
	opts.AuditCadence = *audit
	opts.FaultProfiles = faultProfiles
	opts.AdversaryProfiles = advProfiles

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	if *adv != "" {
		return shared.Finish("adversary", experiments.Adversary(opts))
	}
	return shared.Finish("chaos", experiments.Chaos(opts))
}
