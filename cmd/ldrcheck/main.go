// Command ldrcheck runs the bounded model checker: it explores every
// message interleaving, loss, duplication, and crash schedule on a small
// topology (within explicit budgets) and checks loop freedom and (sn, fd)
// ordering — the paper's Theorem 1 invariants — at every reachable state,
// using the same loopcheck predicate the simulator's runtime auditor
// uses. A violation prints as a minimal action trace; -emit additionally
// writes a conformance seed that replays the schedule under the full
// MAC/radio simulator (commit it under internal/modelcheck/testdata/).
//
//	ldrcheck                                      # ldr on line3, default budgets
//	ldrcheck -topology sweep -resets 1 -drops 1   # every 3–4 node graph
//	ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation -emit seed.json
//	ldrcheck -topology n4-5 -depth 10 -vresets 1
//
// Topologies: line3, ring3, line4, star4, ring4, line5, ring5, any
// enumeration name n<nodes>-<k>, or sweep / sweep3 / sweep4 for every
// non-isomorphic connected graph of that size.
//
// Exit status is 1 when a violation is found, unless -expect-violation
// is given (then 0 iff one is found, for pinning known-unsound protocols
// like AODV under reboots), and 1 whenever an exploration hit
// -max-states without finding a violation, with or without
// -expect-violation: a truncated search that found nothing has proved
// nothing. A result line says how far its search went: "exhausted" when
// the frontier emptied before -depth, so that no longer schedule reaches
// another state, "bounded" when -depth cut it, "capped" when -max-states
// did (a capped cell without a violation fails), and "stopped" at a
// violation. The result lines carry no wall-clock figure (the progress
// report on standard error does), so -q output is byte-identical from
// run to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/manetlab/ldr/internal/cli"
	"github.com/manetlab/ldr/internal/modelcheck"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

func main() { cli.Main(run) }

func run() error {
	var (
		proto     = flag.String("protocol", "ldr", "protocol to check: ldr or aodv")
		topo      = flag.String("topology", "line3", "topology name, n<nodes>-<k>, or sweep|sweep3|sweep4")
		flows     = flag.String("flows", "", "comma-separated src>dst flows (default: every node toward the last)")
		depth     = flag.Int("depth", 12, "schedule length bound (actions per schedule)")
		drops     = flag.Int("drops", 0, "message-loss budget per schedule")
		dups      = flag.Int("dups", 0, "message-duplication budget per schedule")
		resets    = flag.Int("resets", 0, "crash-reboot budget per schedule (stable storage kept)")
		vresets   = flag.Int("vresets", 0, "volatile crash budget per schedule (stable storage wiped)")
		maxStates = flag.Int("max-states", 0, "distinct-state cap; 0 = 2,000,000 (exceeding truncates)")
		seed      = flag.Int64("seed", 1, "per-node RNG seed (only jitter draws consume it)")
		expect    = flag.Bool("expect-violation", false, "invert the exit status: 0 iff a violation is found")
		emit      = flag.String("emit", "", "write the first violation's conformance-replay seed to this file ('-' = stdout)")
		quiet     = flag.Bool("q", false, "suppress progress; print only results")
	)
	if err := cli.Parse(
		"Exhaustively explore a protocol's bounded state space on a small\n"+
			"topology — every message interleaving, loss, duplication, and crash\n"+
			"schedule within the budgets — checking loop freedom and (sn, fd)\n"+
			"ordering at every reachable state. A violation prints as a minimal\n"+
			"action trace and (with -emit) a conformance seed that replays it\n"+
			"under the full MAC/radio simulator.",
		"ldrcheck -topology sweep -resets 1 -drops 1",
		"ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation -emit seed.json",
	); err != nil {
		return err
	}
	if _, err := scenario.Factory(scenario.Config{Protocol: scenario.ProtocolName(*proto)}); err != nil {
		return err
	}
	if *depth < 1 {
		return fmt.Errorf("-depth must be at least 1 (got %d)", *depth)
	}
	for i, v := range []int{*drops, *dups, *resets, *vresets} { // in declaration order
		if v < 0 {
			return fmt.Errorf("-%s must be ≥ 0 (got %d)", []string{"drops", "dups", "resets", "vresets"}[i], v)
		}
	}
	if *maxStates < 0 {
		return fmt.Errorf("-max-states must be ≥ 0 (got %d; 0 means the 2,000,000 default)", *maxStates)
	}

	var graphs []modelcheck.Graph
	var err error
	switch *topo {
	case "sweep":
		graphs, err = modelcheck.SweepGraphs(3, 4)
	case "sweep3":
		graphs, err = modelcheck.SweepGraphs(3)
	case "sweep4":
		graphs, err = modelcheck.SweepGraphs(4)
	default:
		var g modelcheck.Graph
		g, err = modelcheck.NamedTopology(*topo)
		graphs = []modelcheck.Graph{g}
	}
	if err != nil {
		return err
	}

	var flowList []modelcheck.Flow
	if *flows != "" {
		if len(graphs) > 1 {
			return fmt.Errorf("-flows cannot be combined with a sweep (flows are per-topology)")
		}
		for _, part := range strings.Split(*flows, ",") {
			f, err := parseFlow(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			flowList = append(flowList, f)
		}
	}

	opts := modelcheck.Options{
		MaxDepth:   *depth,
		MaxDrops:   *drops,
		MaxDups:    *dups,
		MaxResets:  *resets,
		MaxVResets: *vresets,
		MaxStates:  *maxStates,
	}
	if !*quiet {
		opts.Progress = func(p modelcheck.Progress) {
			rate := float64(p.States) / p.Elapsed.Seconds()
			fmt.Fprintf(os.Stderr, "ldrcheck: states=%d frontier=%d transitions=%d depth=%d elapsed=%v (%.0f states/s)\n",
				p.States, p.Frontier, p.Transitions, p.Depth, p.Elapsed.Round(10_000_000), rate)
		}
	}

	violations := 0
	var truncated []string // cells cut short without a violation
	for _, g := range graphs {
		sc := &modelcheck.Scenario{Graph: g, Protocol: *proto, Seed: *seed, Flows: flowList}
		res, err := modelcheck.Check(sc, opts)
		if err != nil {
			return err
		}
		status := "ok"
		if res.Truncated {
			status = "TRUNCATED (raise -max-states)"
			if res.Violation == nil {
				truncated = append(truncated, g.String())
			}
		}
		if res.Violation != nil {
			status = "VIOLATION"
			violations++
		}
		fmt.Printf("%-8s %-24s states=%-8d transitions=%-9d depth=%-3d %-9s %s\n",
			*proto, g, res.States, res.Transitions, res.Depth, res.Completeness, status)
		if res.Violation != nil {
			fmt.Printf("%s\n", res.Violation)
			if *emit != "" {
				if err := emitSeed(res.Violation, *emit); err != nil {
					return err
				}
				*emit = "" // only the first violation is emitted
			}
		}
	}

	if violations > 0 && !*expect {
		return fmt.Errorf("%d violating topolog%s", violations, map[bool]string{true: "y", false: "ies"}[violations == 1])
	}
	if len(truncated) > 0 {
		return fmt.Errorf("%s on %s: truncated at the state cap with no violation found, which proves nothing (raise -max-states)",
			*proto, strings.Join(truncated, ", "))
	}
	if *expect {
		if violations == 0 {
			return fmt.Errorf("expected a violation, found none")
		}
		fmt.Printf("found %d expected violation(s)\n", violations)
	}
	return nil
}

// parseFlow reads one flow, which must be exactly src>dst in decimal node
// ids: anything before, between or after them is an error naming the flow.
func parseFlow(s string) (modelcheck.Flow, error) {
	src, dst, ok := strings.Cut(s, ">")
	a, errA := strconv.ParseUint(src, 10, 8)
	b, errB := strconv.ParseUint(dst, 10, 8)
	if !ok || errA != nil || errB != nil {
		return modelcheck.Flow{}, fmt.Errorf("bad flow %q (want src>dst, e.g. 0>2)", s)
	}
	return modelcheck.Flow{Src: routing.NodeID(a), Dst: routing.NodeID(b)}, nil
}

// emitSeed writes the witness's conformance-replay spec as JSON.
func emitSeed(w *modelcheck.Witness, path string) error {
	note := fmt.Sprintf("model-checker witness: %s on %s, %d-step schedule; regenerate with make modelcheck-seed",
		w.Scenario.Protocol, w.Scenario.Graph, len(w.Trace))
	spec, err := w.Spec(note)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ldrcheck: wrote replay seed to %s\n", path)
	return nil
}
