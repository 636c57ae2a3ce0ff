// Command ldrbench regenerates the tables and figures of the LDR paper's
// evaluation (§4). Each experiment sweeps the paper's scenario parameters,
// aggregates repeated trials into mean ± 95% confidence intervals, and
// prints the same rows/series the paper reports.
//
//	ldrbench -exp all                        # reduced scale (minutes)
//	ldrbench -exp table1 -simtime 900s -trials 10   # the paper's full setup
//
// Experiments: the names in experiments.Registry, or "all" for the paper
// set. The extras (modelcheck, mobility, radio) run only when named —
// the bounded model-check sweep is exhaustive rather than statistical,
// and the other two come from the follow-on literature. See also
// cmd/ldrcheck for the budget-tunable model-check front end.
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
	"flag"
	"strings"
	"time"

	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/experiments"
)

func main() { cli.Main(run) }

func run() error {
	var shared cli.Experiment
	shared.Seed, shared.Trials, shared.SimTime = 1, 3, 300*time.Second
	shared.Bind(flag.CommandLine)
	var prof cli.Profile
	prof.Bind(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|")+`; "all" is the paper set, everything listed before it`)
	if err := cli.Parse(
		"Regenerate the tables and figures of the LDR paper's evaluation (§4):\n"+
			"each experiment sweeps the paper's scenario parameters, aggregates\n"+
			"repeated trials into mean ± 95% CI, and prints the rows the paper\n"+
			"reports. Output is byte-identical at any -workers setting.",
		"ldrbench -exp table1 -simtime 900s -trials 10   # the paper's full setup",
		"ldrbench -exp fig3 -protocols ldr,aodv",
		"ldrbench -exp mobility                          # waypoint vs manhattan vs gaussmarkov",
		"ldrbench -exp table1 -traffic bursty",
		"ldrbench -exp radio                             # uniform vs mixed vs asym power, density profiles",
		"ldrbench -exp fig3 -radio asym -density gradient",
		"ldrbench -exp table1 -journal /tmp/t1.journal           # kill-safe; ^C prints the resume command",
		"ldrbench -exp table1 -journal /tmp/t1.journal -resume   # continue a killed sweep",
		"ldrbench -exp all -journal DIR -cell-timeout 2m -keep-going",
	); err != nil {
		return err
	}
	experiment, err := experiments.Find(*exp)
	if err != nil {
		return err
	}
	opts, err := shared.Options()
	if err != nil {
		return err
	}

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	return shared.Finish("metrics", experiment.Run(opts))
}
