// Command ldrbench regenerates the tables and figures of the LDR paper's
// evaluation (§4). Each experiment sweeps the paper's scenario parameters,
// aggregates repeated trials into mean ± 95% confidence intervals, and
// prints the same rows/series the paper reports.
//
//	ldrbench -exp all                        # reduced scale (minutes)
//	ldrbench -exp table1 -simtime 900s -trials 10   # the paper's full setup
//
// Experiments: the names in experiments.Registry, or "all" for the paper
// set. The extras (chaos, adversary) run only when named: they are the
// fault-injection and Byzantine-node suites. The bounded model check is
// cmd/ldrcheck.
//
// Chaos runs every protocol under every fault profile — node crash and
// reboot with volatile state loss, link flapping, partitions, lossy
// delivery — with the continuous loopcheck auditor scoring routing-loop
// and label-ordering violations throughout. The "reboot" profile is the
// regime of van Glabbeek et al.'s AODV-loop construction: rebooted AODV
// nodes lose their sequence numbers and can pull stale routes into
// persistent loops, while LDR's persisted destination sequence numbers
// and feasible-distance labels keep its count at zero. Adversary runs
// compromised nodes that forge inflated destination sequence numbers
// (see internal/adversary), each attacked run paired with an
// attack-free baseline on the same seed.
// -profiles picks their profiles (default: all of them):
//
//	ldrbench -exp chaos -profiles reboot,mayhem -simtime 120s -trials 5
//	ldrbench -exp adversary -profiles seqno-forge -protocols ldr,aodv -simtime 120s
//
// Output is deterministic: byte-identical for the same flags at any
// -workers setting.
//
// With -journal DIR the sweep is crash-safe: completed cells are durably
// recorded, ^C prints the exact resume command, and -resume continues a
// killed run to byte-identical output. -cell-timeout arms a per-cell
// watchdog and -keep-going quarantines failing cells (with auto-emitted
// reproducers) instead of aborting the whole sweep.
package main

import (
	"cmp"
	"flag"
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
	shared.Seed, shared.Trials, shared.SimTime = 1, 3, 300*time.Second
	shared.Bind(flag.CommandLine)
	var prof cli.Profile
	prof.Bind(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|")+`; "all" is the paper set, everything listed before it`)
	profiles := flag.String("profiles", "", "comma-separated profiles for -exp chaos ("+strings.Join(fault.ProfileNames(), ",")+
		") or -exp adversary ("+strings.Join(adversary.ProfileNames(), ",")+"); default: all of them")
	if err := cli.Parse(
		"Regenerate the tables and figures of the LDR paper's evaluation (§4):\n"+
			"each experiment sweeps the paper's scenario parameters, aggregates\n"+
			"repeated trials into mean ± 95% CI, and prints the rows the paper\n"+
			"reports. Output is byte-identical at any -workers setting. With -exp\n"+
			"chaos or adversary, run the fault-injection or Byzantine-node suite:\n"+
			"every protocol under every -profiles entry, audited for loops throughout.",
		"ldrbench -exp table1 -simtime 900s -trials 10   # the paper's full setup",
		"ldrbench -exp fig3 -protocols ldr,aodv",
		"ldrbench -exp table1 -journal /tmp/t1.journal           # kill-safe; ^C prints the resume command",
		"ldrbench -exp table1 -journal /tmp/t1.journal -resume   # continue a killed sweep",
		"ldrbench -exp all -journal DIR -cell-timeout 2m -keep-going",
		"ldrbench -exp chaos -profiles reboot,mayhem -simtime 120s -trials 5",
		"ldrbench -exp adversary -profiles seqno-forge -protocols ldr,aodv -simtime 120s",
		"ldrbench -exp chaos -simtime 120s -journal DIR -cell-timeout 2m -keep-going      # quarantine wedged/panicking cells",
		"ldrbench -exp chaos -profiles lossy -protocols ldr -trials 1 -workers 1 -cpuprofile cell.pprof  # make profile-cell FAULT=lossy",
	); err != nil {
		return err
	}
	experiment, err := experiments.Find(*exp)
	if err != nil {
		return err
	}
	selected, err := cli.List(*profiles, experiment.CheckProfile)
	if err != nil {
		return err
	}
	opts, err := shared.Options()
	if err != nil {
		return err
	}
	opts.Profiles = selected

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	return shared.Finish(cmp.Or(experiment.Scope, "metrics"), experiment.Run(opts))
}
