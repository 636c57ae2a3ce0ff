// Package sweep is a deterministic parallel runner for independent
// simulation cells.
//
// The paper's evaluation is a sweep over hundreds of independent
// (protocol × node count × flow count × pause time × seed) scenario
// cells. Each cell owns its entire world — simulator, medium, nodes,
// RNG streams — so cells are share-nothing and embarrassingly parallel.
// sweep fans them out across a worker pool of goroutines while keeping
// every observable output identical to a serial run:
//
//   - Results are collected positionally, indexed by the cell's place in
//     the input, so aggregation and rendering order never depend on
//     completion order.
//   - On failure the runner stops claiming new cells, waits for in-flight
//     cells, and returns the error of the lowest-indexed failing cell —
//     the same error a serial run would have returned. With
//     ExecOptions.KeepGoing the sweep instead finishes every cell and
//     returns the full failure set as a Failures error.
//
// One worker is the same pool with one goroutine: cells run in index
// order, off the caller's goroutine like at any other worker count.
//
// RunCells layers crash-safety on top (see internal/resilience): a
// content-addressed journal that lets a killed sweep resume where it
// stopped, per-cell watchdog deadlines and panic quarantine.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
)

// Options control a sweep.
type Options struct {
	// Workers is the number of concurrent cells. Zero or negative selects
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is updated as cells start and finish. It
	// may be read concurrently from other goroutines (e.g. a status
	// ticker).
	Progress *Progress
	// Exec holds the execution-resilience options: journaling, per-cell
	// watchdogs and quarantine. The zero value preserves the original
	// fail-fast, unjournaled behavior.
	Exec ExecOptions
}

// ExecOptions make a sweep crash-safe and degradation-tolerant. All
// fields are optional; the zero value is a plain fail-fast sweep.
type ExecOptions struct {
	// Journal, when non-nil, makes RunCells resumable: each cell's config
	// is content-addressed (resilience.SpecHash) and completed payloads
	// are durably recorded, so cells already on record are loaded instead
	// of re-run, and identical cells within one sweep share a single
	// execution.
	Journal *resilience.Journal
	// Scope namespaces the journal payload type (e.g. "metrics",
	// "chaos"); sweeps storing different payload shapes in one journal
	// must use distinct scopes.
	Scope string

	// CellTimeout, when positive, arms a wall-clock watchdog per cell,
	// scaled by cell size (resilience.CellDeadline). An expired cell is
	// interrupted at its next event boundary and reported as a typed
	// *resilience.CellTimeout. An interrupted cell gets its deadline
	// again, at most maxGrace, to reach that boundary before its
	// goroutine is abandoned.
	CellTimeout time.Duration

	// KeepGoing finishes the sweep despite cell failures and returns the
	// whole failure set as a Failures error alongside the partial
	// results; false preserves the first-error-abort semantics.
	KeepGoing bool

	// OnFailure, when non-nil, is called once per failed cell,
	// concurrently from worker goroutines. The quarantine emitter uses it
	// to write reproducer specs; hooks may set the CellError's Repro
	// field to record what they wrote.
	OnFailure func(*CellError)

	// Control, when non-nil, is a sweep-wide stop switch: once
	// interrupted, no new cells are claimed, in-flight cells bound to it
	// (sweep.Run binds every cell) stop at their next event boundary, and
	// their partial results are never journaled. ldrsim's SIGINT handler
	// uses it to turn ^C into partial metrics instead of a dead process.
	Control *scenario.Control
}

// workers resolves the worker count for n cells.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// workerBeat is one worker's liveness record.
type workerBeat struct {
	at   atomic.Int64 // unix nanos of the last heartbeat
	cell atomic.Int64 // 1+cell index while running a cell, 0 when idle
}

// Progress exposes live counters for a running sweep. All methods are
// safe for concurrent use. A Progress may be reused across sequential
// sweeps; each sweep resets the counters and the per-worker heartbeats.
type Progress struct {
	total  atomic.Int64
	failed atomic.Int64
	loaded atomic.Int64

	beats atomic.Pointer[[]workerBeat]
}

// Total returns the number of cells in the sweep.
func (p *Progress) Total() int { return int(p.total.Load()) }

// Failed returns the number of cells that returned an error.
func (p *Progress) Failed() int { return int(p.failed.Load()) }

// Loaded returns the number of cells satisfied from the journal (or a
// deduped twin cell) instead of executed.
func (p *Progress) Loaded() int { return int(p.loaded.Load()) }

// Retried returns 0: a sweep does not re-run a failed cell. It stays
// only because the frozen benchmark reads it for its sweep.retried
// counter; ROADMAP item 10(a) deletes it with the next benchmark change.
func (p *Progress) Retried() int { return 0 }

// Workers returns the size of the worker pool of the current (or most
// recent) sweep, zero before any sweep ran.
func (p *Progress) Workers() int {
	if b := p.beats.Load(); b != nil {
		return len(*b)
	}
	return 0
}

// LastBeat returns the wall-clock time of worker w's last heartbeat
// (claiming or finishing a cell). The zero time means no such worker.
func (p *Progress) LastBeat(w int) time.Time {
	b := p.beats.Load()
	if b == nil || w < 0 || w >= len(*b) {
		return time.Time{}
	}
	return time.Unix(0, (*b)[w].at.Load())
}

// WorkerCell returns the cell index worker w is currently running, and
// whether it is running one at all.
func (p *Progress) WorkerCell(w int) (int, bool) {
	b := p.beats.Load()
	if b == nil || w < 0 || w >= len(*b) {
		return 0, false
	}
	c := (*b)[w].cell.Load()
	if c == 0 {
		return 0, false
	}
	return int(c - 1), true
}

// reset prepares the counters and heartbeat slots for a new sweep.
func (p *Progress) reset(total, workers int) {
	p.total.Store(int64(total))
	p.failed.Store(0)
	p.loaded.Store(0)
	b := make([]workerBeat, workers)
	now := time.Now().UnixNano()
	for i := range b {
		b[i].at.Store(now)
	}
	p.beats.Store(&b)
}

// beat stamps worker w's heartbeat; cell is the index being started, or
// -1 when the worker goes idle.
func (p *Progress) beat(w, cell int) {
	b := p.beats.Load()
	if b == nil || w < 0 || w >= len(*b) {
		return
	}
	(*b)[w].at.Store(time.Now().UnixNano())
	(*b)[w].cell.Store(int64(cell) + 1)
}

// CellError is one failed sweep cell: the index, the underlying error,
// and — when the sweep was journaled or quarantined — the spec hash,
// config and reproducer path.
type CellError struct {
	Index int
	Key   string           // spec hash, when journaled
	Spec  *scenario.Config // the cell's config, when run via RunCells
	Repro string           // reproducer path, when a quarantine hook wrote one
	Err   error
}

// Error reports the cell's failure; typed panic/timeout errors already
// name their cell, so they pass through unwrapped.
func (e *CellError) Error() string {
	switch e.Err.(type) {
	case *resilience.CellPanic, *resilience.CellTimeout:
		return e.Err.Error()
	}
	return fmt.Sprintf("cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Failures is the error a keep-going sweep returns when cells failed:
// every failure, sorted by cell index. The sweep's other cells completed
// and their results are valid.
type Failures []*CellError

// Error summarizes the failure set.
func (fs Failures) Error() string {
	if len(fs) == 0 {
		return "no sweep failures"
	}
	return fmt.Sprintf("%d sweep cell(s) failed; first: %v", len(fs), fs[0])
}

// Manifest converts the failure set into a persistable failure manifest
// for the sweep's journal directory.
func (fs Failures) Manifest(scope string, cells int) resilience.Manifest {
	m := resilience.Manifest{Scope: scope, Cells: cells}
	for _, ce := range fs {
		rec := resilience.FailureRecord{
			Index: ce.Index,
			Key:   ce.Key,
			Kind:  resilience.Kind(ce.Err),
			Error: ce.Error(),
			Repro: ce.Repro,
		}
		if p, ok := asPanic(ce.Err); ok {
			rec.Stack = p.Stack
		}
		m.Failures = append(m.Failures, rec)
	}
	return m
}

// Each runs fn(i) for every i in [0, n) across a pool of workers and
// returns the error of the lowest-indexed failing call, or nil. After
// the first failure no new indices are claimed; indices are claimed in
// ascending order, so the returned error is deterministic for
// deterministic fn. With Exec.KeepGoing every index runs regardless of
// failures and the full set is returned as a Failures error. fn must not
// share mutable state across indices except through distinct, per-index
// slots (e.g. out[i] = ...). A panicking fn is converted into a
// *resilience.CellPanic error rather than crashing the pool.
func Each(n int, opt Options, fn func(i int) error) error {
	return eachWorker(n, opt, func(i, _ int) error { return fn(i) })
}

// eachWorker is Each with the worker id exposed to fn, so RunCells can
// attribute heartbeats and watchdog reports to the right worker.
func eachWorker(n int, opt Options, fn func(i, w int) error) error {
	workers := opt.workers(n)
	if opt.Progress != nil {
		opt.Progress.reset(n, workers)
	}
	if n == 0 {
		return nil
	}

	var (
		next atomic.Int64 // next unclaimed index
		stop atomic.Bool  // set on first failure (fail-fast mode only)

		mu       sync.Mutex
		firstErr error
		errIndex int = -1
		failures Failures
	)
	keepGoing := opt.Exec.KeepGoing
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stop.Load() || opt.Exec.Control.Interrupted() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := runIndex(opt, fn, i, w)
				if err != nil {
					mu.Lock()
					if keepGoing {
						failures = append(failures, asCellError(i, err))
					} else {
						stop.Store(true)
						if errIndex == -1 || i < errIndex {
							errIndex, firstErr = i, err
						}
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if keepGoing && len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
		return failures
	}
	return firstErr
}

// runIndex runs one cell with heartbeats, the panic net, and progress
// accounting.
func runIndex(opt Options, fn func(i, w int) error, i, w int) error {
	if opt.Progress != nil {
		opt.Progress.beat(w, i)
	}
	err := safeIndex(fn, i, w)
	if opt.Progress != nil {
		if err != nil {
			opt.Progress.failed.Add(1)
		}
		opt.Progress.beat(w, -1)
	}
	return err
}

// safeIndex converts a panicking cell into a typed error so one poisoned
// cell cannot crash the whole pool.
func safeIndex(fn func(i, w int) error, i, w int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &resilience.CellPanic{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(i, w)
}

// asCellError wraps err for the failure set, preserving an existing
// *CellError (RunCells builds enriched ones).
func asCellError(i int, err error) *CellError {
	if ce, ok := err.(*CellError); ok {
		return ce
	}
	return &CellError{Index: i, Err: err}
}
