package sweep_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// syntheticCells builds n distinct tiny configs. The cells are never
// simulated by the synthetic RunCells tests — they exist so spec hashing
// and watchdog scaling have real configs to look at.
func syntheticCells(n int) []scenario.Config {
	cfgs := make([]scenario.Config, n)
	for i := range cfgs {
		cfgs[i] = scenario.Nodes50(scenario.LDR, 4, 0, int64(i+1))
		cfgs[i].Nodes = 10
		cfgs[i].SimTime = 5 * time.Second
	}
	return cfgs
}

// TestEachCancellationProperty is the sweep cancellation property test:
// for every worker count × failing-index set, the lowest-indexed error
// is returned, every started cell drains before Each returns, and — in
// keep-going mode — the failure set matches the injected set exactly.
// Run under -race via `make race`.
func TestEachCancellationProperty(t *testing.T) {
	const n = 24
	for _, workers := range []int{1, 2, 4, 8} {
		for first := 0; first < n; first++ {
			// Inject failures at {first, first+5, first+10, ...} so
			// multi-failure selection is exercised, not just a lone error.
			injected := make(map[int]bool)
			for i := first; i < n; i += 5 {
				injected[i] = true
			}

			// Fail-fast arm: lowest-indexed error, every claimed cell
			// finished.
			var claimed, finished, inFlight, maxInFlight atomic.Int64
			err := sweep.Each(n, sweep.Options{Workers: workers}, func(i int) error {
				claimed.Add(1)
				defer finished.Add(1)
				cur := inFlight.Add(1)
				for {
					prev := maxInFlight.Load()
					if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
						break
					}
				}
				defer inFlight.Add(-1)
				if injected[i] {
					return fmt.Errorf("injected failure at %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("injected failure at %d", first) {
				t.Fatalf("workers=%d first=%d: err = %v, want lowest-indexed", workers, first, err)
			}
			if inFlight.Load() != 0 {
				t.Fatalf("workers=%d first=%d: %d cells still in flight after Each returned", workers, first, inFlight.Load())
			}
			if claimed.Load() != finished.Load() {
				t.Fatalf("workers=%d first=%d: claimed %d != finished %d (in-flight cells did not drain)",
					workers, first, claimed.Load(), finished.Load())
			}

			// Keep-going arm: every cell runs; the failure set is exactly
			// the injected set, sorted by index.
			var ran atomic.Int64
			err = sweep.Each(n, sweep.Options{
				Workers: workers,
				Exec:    sweep.ExecOptions{KeepGoing: true},
			}, func(i int) error {
				ran.Add(1)
				if injected[i] {
					return fmt.Errorf("injected failure at %d", i)
				}
				return nil
			})
			var fs sweep.Failures
			if !errors.As(err, &fs) {
				t.Fatalf("workers=%d first=%d: keep-going err = %T %v, want Failures", workers, first, err, err)
			}
			if int(ran.Load()) != n {
				t.Fatalf("workers=%d first=%d: keep-going ran %d of %d cells", workers, first, ran.Load(), n)
			}
			if len(fs) != len(injected) {
				t.Fatalf("workers=%d first=%d: %d failures, want %d", workers, first, len(fs), len(injected))
			}
			prev := -1
			for _, ce := range fs {
				if !injected[ce.Index] {
					t.Fatalf("workers=%d first=%d: unexpected failure at %d", workers, first, ce.Index)
				}
				if ce.Index <= prev {
					t.Fatalf("workers=%d first=%d: failures not sorted: %d after %d", workers, first, ce.Index, prev)
				}
				prev = ce.Index
			}
		}
	}
}

// tinyCells is a small mixed cell set with real simulation work,
// auditing, and fault injection, for the resume-determinism tests.
func tinyCells(t *testing.T) []scenario.Config {
	t.Helper()
	var cfgs []scenario.Config
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := scenario.Nodes50(proto, 4, 0, seed)
			cfg.Nodes = 12
			cfg.SimTime = 8 * time.Second
			cfg.AuditCadence = time.Second
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// renderResults reduces a result slice to the strings an experiment
// table would print; byte-equality here is the paper-output contract.
func renderResults(results []scenario.Result) string {
	var b strings.Builder
	for i, r := range results {
		c := r.Collector
		if c == nil {
			fmt.Fprintf(&b, "%d: <missing>\n", i)
			continue
		}
		fmt.Fprintf(&b, "%d: %s seed=%d delivery=%.6f latency=%v load=%.6f rreq=%.6f rrepi=%.6f rrepr=%.6f hops=%.6f seqno=%.6f events=%d audits=%d loops=%d drops=%d inflight=%d viol=%d faults=%+v\n",
			i, r.Config.Protocol, r.Config.Seed,
			c.DeliveryRatio(), c.MeanLatency(), c.NetworkLoad(), c.RREQLoad(),
			c.RREPInitPerRREQ(), c.RREPRecvPerRREQ(), c.MeanHops(), c.MeanSeqno(),
			r.Events, c.AuditSnapshots, c.LoopViolations,
			c.DroppedBy(0)+c.DroppedBy(1), c.InFlight(), len(r.Violations), r.Faults)
	}
	return b.String()
}

// TestRunJournalResumeByteIdentical is the kill-resume determinism
// contract: a journaled sweep stopped after k cells (the crash model: a
// kill -9 after k durable commits) and resumed in a fresh process
// produces byte-identical rendered output to the same sweep run
// uninterrupted, at any worker count.
func TestRunJournalResumeByteIdentical(t *testing.T) {
	cfgs := tinyCells(t)
	ref, err := sweep.Run(cfgs, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(ref)

	for _, k := range []int{0, 1, 3, len(cfgs)} {
		for _, workers := range []int{1, 3} {
			dir := t.TempDir()
			if k > 0 {
				j, err := resilience.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sweep.Run(cfgs[:k], sweep.Options{
					Workers: workers,
					Exec:    sweep.ExecOptions{Journal: j},
				}); err != nil {
					t.Fatal(err)
				}
				if j.Len() != k {
					t.Fatalf("k=%d: journal holds %d records", k, j.Len())
				}
			}

			// "New process": reopen the journal from disk and resume.
			j2, err := resilience.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var prog sweep.Progress
			got, err := sweep.Run(cfgs, sweep.Options{
				Workers:  workers,
				Progress: &prog,
				Exec:     sweep.ExecOptions{Journal: j2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if prog.Loaded() != k {
				t.Fatalf("k=%d workers=%d: %d cells loaded from journal, want %d", k, workers, prog.Loaded(), k)
			}
			if r := renderResults(got); r != want {
				t.Fatalf("k=%d workers=%d: resumed output differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s", k, workers, r, want)
			}
		}
	}
}

// TestRunCellsDedupSharesExecution: identical specs within one journaled
// sweep execute once; followers decode the leader's payload into their
// own slots.
func TestRunCellsDedupSharesExecution(t *testing.T) {
	base := syntheticCells(3)
	cfgs := []scenario.Config{base[0], base[1], base[0], base[2], base[1], base[0]}
	j, err := resilience.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	var prog sweep.Progress
	out, err := sweep.RunCells(cfgs, sweep.Options{
		Workers:  4,
		Progress: &prog,
		Exec:     sweep.ExecOptions{Journal: j, Scope: "dedup-test"},
	}, func(i int, _ *scenario.Control) (map[string]int64, error) {
		executions.Add(1)
		return map[string]int64{"seed": cfgs[i].Seed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("%d executions for 3 unique specs", got)
	}
	if prog.Loaded() != len(cfgs)-3 {
		t.Fatalf("Loaded = %d, want %d", prog.Loaded(), len(cfgs)-3)
	}
	for i, m := range out {
		if m["seed"] != cfgs[i].Seed {
			t.Fatalf("out[%d] = %v, want seed %d", i, m, cfgs[i].Seed)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("journal holds %d records, want 3", j.Len())
	}
}

// TestRunCellsWatchdogInterrupts: a hung cell that honors the interrupt
// within its grace (its deadline again) is reported as a CellTimeout
// carrying the cell's spec, and is not abandoned.
func TestRunCellsWatchdogInterrupts(t *testing.T) {
	cfgs := syntheticCells(3)
	_, err := sweep.RunCells(cfgs, sweep.Options{
		Workers: 2,
		Exec:    sweep.ExecOptions{CellTimeout: 200 * time.Millisecond},
	}, func(i int, ctl *scenario.Control) (int, error) {
		if i != 1 {
			return i, nil
		}
		for !ctl.Interrupted() {
			time.Sleep(time.Millisecond)
		}
		return 0, nil
	})
	var to *resilience.CellTimeout
	if !errors.As(err, &to) {
		t.Fatalf("err = %T %v, want CellTimeout", err, err)
	}
	if to.Index != 1 || to.Spec == nil || to.Spec.Seed != cfgs[1].Seed {
		t.Fatalf("timeout not enriched: %+v", to)
	}
	if to.Abandoned {
		t.Fatal("cell honored the interrupt but was abandoned")
	}
}

// TestRunCellsWatchdogAbandons: a cell that ignores the interrupt past
// the grace period (its deadline again) is abandoned.
func TestRunCellsWatchdogAbandons(t *testing.T) {
	cfgs := syntheticCells(1)
	release := make(chan struct{})
	defer close(release)
	_, err := sweep.RunCells(cfgs, sweep.Options{
		Workers: 1,
		Exec:    sweep.ExecOptions{CellTimeout: 20 * time.Millisecond},
	}, func(i int, _ *scenario.Control) (int, error) {
		<-release // never honors the interrupt
		return 7, nil
	})
	var to *resilience.CellTimeout
	if !errors.As(err, &to) {
		t.Fatalf("err = %T %v, want CellTimeout", err, err)
	}
	if !to.Abandoned {
		t.Fatal("cell ignored the interrupt but was not abandoned")
	}
}

// TestRunCellsPanicQuarantine: a panicking cell in a keep-going sweep is
// quarantined — the other cells complete, the failure set names the
// cell with its stack, and the OnFailure hook fires exactly once with
// its Repro propagated into the typed error.
func TestRunCellsPanicQuarantine(t *testing.T) {
	cfgs := syntheticCells(5)
	var hooks atomic.Int64
	out, err := sweep.RunCells(cfgs, sweep.Options{
		Workers: 2,
		Exec: sweep.ExecOptions{
			KeepGoing: true,
			OnFailure: func(ce *sweep.CellError) {
				hooks.Add(1)
				ce.Repro = "repro-test.json"
			},
		},
	}, func(i int, _ *scenario.Control) (int, error) {
		if i == 2 {
			panic("deliberately poisoned cell")
		}
		return i * 10, nil
	})
	var fs sweep.Failures
	if !errors.As(err, &fs) || len(fs) != 1 {
		t.Fatalf("err = %T %v, want one-element Failures", err, err)
	}
	var p *resilience.CellPanic
	if !errors.As(fs[0].Err, &p) {
		t.Fatalf("failure is %T, want CellPanic", fs[0].Err)
	}
	if p.Index != 2 || p.Value != "deliberately poisoned cell" || !strings.Contains(p.Stack, "goroutine") {
		t.Fatalf("panic not captured: %+v", p)
	}
	if p.Repro != "repro-test.json" || fs[0].Repro != "repro-test.json" {
		t.Fatal("OnFailure's Repro did not propagate")
	}
	if hooks.Load() != 1 {
		t.Fatalf("OnFailure fired %d times", hooks.Load())
	}
	for i, v := range out {
		if i == 2 {
			continue
		}
		if v != i*10 {
			t.Fatalf("cell %d did not complete despite quarantine: %d", i, v)
		}
	}

	m := fs.Manifest("test", len(cfgs))
	if m.Cells != 5 || len(m.Failures) != 1 || m.Failures[0].Kind != "panic" ||
		m.Failures[0].Index != 2 || m.Failures[0].Stack == "" || m.Failures[0].Repro != "repro-test.json" {
		t.Fatalf("manifest wrong: %+v", m)
	}
}

// TestProgressStalled: a worker stuck mid-cell reports that cell in
// WorkerCell while the others finish the sweep; after the sweep no
// worker reports a cell.
func TestProgressStalled(t *testing.T) {
	var prog sweep.Progress
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- sweep.Each(4, sweep.Options{Workers: 2, Progress: &prog}, func(i int) error {
			if i == 0 {
				<-block
			}
			return nil
		})
	}()

	// running lists the cells the workers report, in worker order.
	running := func() []int {
		var cells []int
		for w := 0; w < prog.Workers(); w++ {
			if cell, ok := prog.WorkerCell(w); ok {
				cells = append(cells, cell)
			}
		}
		return cells
	}
	deadline := time.After(5 * time.Second)
	for {
		// The other worker runs cells 1-3 and goes idle; the blocked
		// one stays on cell 0.
		if cells := running(); len(cells) == 1 && cells[0] == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("workers report cells %v, want only the blocked cell 0", running())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cells := running(); len(cells) != 0 {
		t.Fatalf("workers report cells %v after the sweep", cells)
	}
	if prog.Workers() != 2 {
		t.Fatalf("Workers = %d", prog.Workers())
	}
}
