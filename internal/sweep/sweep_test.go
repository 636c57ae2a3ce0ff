package sweep_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// smallCells is a reduced Table-1-style cell set: protocols × pause times
// × seeds, small enough to run in a couple of seconds.
func smallCells() []scenario.Config {
	var cfgs []scenario.Config
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		for _, pause := range []time.Duration{0, 15 * time.Second} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := scenario.Nodes50(proto, 4, pause, seed)
				cfg.Nodes = 15
				cfg.SimTime = 15 * time.Second
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestRunParallelIdenticalToSerial is the determinism contract: the same
// cell set run serially and with four workers must produce identical
// per-cell metrics, in the same (input) order.
func TestRunParallelIdenticalToSerial(t *testing.T) {
	cfgs := smallCells()
	serial, err := sweep.Run(cfgs, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.Run(cfgs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if !reflect.DeepEqual(a.Config, b.Config) {
			t.Fatalf("cell %d: configs differ (results out of order)", i)
		}
		ac, bc := a.Collector, b.Collector
		if a.Events != b.Events ||
			ac.DataInitiated != bc.DataInitiated ||
			ac.DataDelivered != bc.DataDelivered ||
			ac.DataDropped != bc.DataDropped ||
			ac.TotalLatency != bc.TotalLatency ||
			ac.TotalControlTransmitted() != bc.TotalControlTransmitted() {
			t.Errorf("cell %d (%s seed %d): serial and parallel metrics diverge\n"+
				"  events %d vs %d, delivered %d vs %d, control %d vs %d",
				i, a.Config.Protocol, a.Config.Seed,
				a.Events, b.Events, ac.DataDelivered, bc.DataDelivered,
				ac.TotalControlTransmitted(), bc.TotalControlTransmitted())
		}
	}
}

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 200
		counts := make([]atomic.Int32, n)
		var prog sweep.Progress
		err := sweep.Each(n, sweep.Options{Workers: workers, Progress: &prog}, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		if prog.Total() != n || prog.Done() != n || prog.Started() != n || prog.Failed() != 0 {
			t.Fatalf("workers=%d: progress = total %d started %d done %d failed %d",
				workers, prog.Total(), prog.Started(), prog.Done(), prog.Failed())
		}
	}
}

// TestEachReturnsLowestIndexError: whichever worker fails first, the
// error reported is the one a serial run would have hit.
func TestEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var prog sweep.Progress
		err := sweep.Each(50, sweep.Options{Workers: workers, Progress: &prog}, func(i int) error {
			if i >= 7 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 7's error", workers, err)
		}
		if prog.Failed() == 0 {
			t.Fatalf("workers=%d: no failures counted", workers)
		}
	}
}

// TestEachStopsClaimingAfterError: after a failure no new indices are
// claimed, so a long tail of cells is never started.
func TestEachStopsClaimingAfterError(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	boom := errors.New("boom")
	_ = sweep.Each(n, sweep.Options{Workers: 4}, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d cells ran despite an error at index 0", n)
	}
}

func TestEachZeroCells(t *testing.T) {
	if err := sweep.Each(0, sweep.Options{Workers: 8}, func(int) error {
		t.Error("fn called for empty sweep")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEachConcurrentStress exercises the pool under the race detector:
// many tiny cells, workers exceeding GOMAXPROCS, and a goroutine polling
// the progress counters while the sweep runs.
func TestEachConcurrentStress(t *testing.T) {
	const n = 5000
	out := make([]int, n)
	var prog sweep.Progress
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = prog.Done() + prog.Started() + prog.Total()
			}
		}
	}()
	err := sweep.Each(n, sweep.Options{Workers: 32, Progress: &prog}, func(i int) error {
		out[i] = i * i
		return nil
	})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
