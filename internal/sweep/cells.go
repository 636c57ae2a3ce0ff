package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
)

// cellShare coordinates spec-hash dedup within one sweep: the first
// index with a given hash (the leader) executes; later indices wait for
// done and decode the leader's encoded payload into their own slot.
// Indices are claimed in ascending order, so a follower can only be
// in-flight if its leader already is, and done always closes — even
// when the leader fails or times out.
type cellShare struct {
	leader int
	done   chan struct{}
	blob   []byte
	err    error
}

// Watchdog commit states: the cell goroutine CASes running→committed
// before publishing its result; the watchdog CASes running→abandoned
// when the grace period expires. Whoever wins the CAS owns the outcome,
// so an abandoned (leaked) goroutine can never publish late and race the
// result slots.
const (
	cellRunning int32 = iota
	cellCommitted
	cellAbandoned
)

// maxGrace caps how long an interrupted cell may take to reach an event
// boundary before it is abandoned; a cell's grace is its own deadline
// when that is shorter.
const maxGrace = 5 * time.Second

// RunCells executes run(i, ctl) for every config across the worker pool
// and collects the results positionally, layering on the resilience
// options: journal lookup/commit and in-sweep dedup (Exec.Journal),
// per-cell watchdog deadlines (Exec.CellTimeout) and panic quarantine.
//
// run receives a per-cell Control; implementations that simulate must
// bind it (scenario.RunWithControl does) so the watchdog can interrupt
// a hung cell at an event boundary. Payloads cross the journal as JSON,
// so T must round-trip through encoding/json exactly.
//
// On a fail-fast sweep the results are nil and the error is the lowest
// failing cell's. On a keep-going sweep the partial results are returned
// alongside a Failures error; failed cells hold T's zero value.
func RunCells[T any](cfgs []scenario.Config, opt Options, run func(i int, ctl *scenario.Control) (T, error)) ([]T, error) {
	n := len(cfgs)
	out := make([]T, n)
	exec := opt.Exec
	journaled := exec.Journal != nil

	var keys []string
	var shares map[string]*cellShare
	if journaled {
		keys = make([]string, n)
		shares = make(map[string]*cellShare, n)
		for i := range cfgs {
			k, err := resilience.SpecHash(exec.Scope, cfgs[i])
			if err != nil {
				return nil, err
			}
			keys[i] = k
			if _, ok := shares[k]; !ok {
				shares[k] = &cellShare{leader: i, done: make(chan struct{})}
			}
		}
	}

	err := eachWorker(n, opt, func(i, w int) error {
		var key string
		var sh *cellShare
		if journaled {
			key = keys[i]
			if blob, ok := exec.Journal.Get(key); ok {
				v, derr := decodeCell[T](blob)
				if derr != nil {
					return cellFailure(opt, i, key, &cfgs[i],
						fmt.Errorf("journal payload does not decode (wrong -journal directory or scope?): %w", derr))
				}
				out[i] = v
				if opt.Progress != nil {
					opt.Progress.loaded.Add(1)
				}
				return nil
			}
			sh = shares[key]
			if sh.leader != i {
				<-sh.done
				if sh.err != nil {
					return cellFailure(opt, i, key, &cfgs[i],
						fmt.Errorf("shares spec with failed cell %d: %w", sh.leader, sh.err))
				}
				v, derr := decodeCell[T](sh.blob)
				if derr != nil {
					return cellFailure(opt, i, key, &cfgs[i], derr)
				}
				out[i] = v
				if opt.Progress != nil {
					opt.Progress.loaded.Add(1)
				}
				return nil
			}
		}

		v, err := runWatched(cfgs, opt, run, i, w)
		var blob []byte
		if err == nil && journaled && !exec.Control.Interrupted() {
			// Encode-then-fsync before publishing to followers or the
			// result slot: after Put returns, a kill -9 cannot lose the
			// cell. Interrupted sweeps skip the commit — a partial result
			// must never masquerade as the cell's true payload.
			if blob, err = json.Marshal(v); err == nil {
				err = exec.Journal.Put(key, blob)
			}
			if err != nil {
				err = fmt.Errorf("journaling cell %d: %w", i, err)
			}
		}
		if journaled {
			sh.blob, sh.err = blob, err
			close(sh.done)
		}
		if err != nil {
			return cellFailure(opt, i, key, &cfgs[i], err)
		}
		out[i] = v
		return nil
	})

	if journaled {
		// One directory barrier for the whole sweep: every record renamed
		// above becomes durable here (Put fsyncs the record bytes; Sync
		// persists the directory entries).
		if serr := exec.Journal.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("syncing journal: %w", serr)
		}
	}
	if err != nil {
		if fs, ok := err.(Failures); ok {
			return out, fs
		}
		return nil, err
	}
	return out, nil
}

// runWatched runs one cell under its scaled watchdog deadline. On
// expiry the cell is interrupted cooperatively (its simulator stops at
// the next event boundary); a cell that ignores the interrupt for its
// deadline again (at most maxGrace) is abandoned — its goroutine leaks, but the commit CAS
// guarantees it can never publish a result afterwards.
func runWatched[T any](cfgs []scenario.Config, opt Options, run func(int, *scenario.Control) (T, error), i, w int) (T, error) {
	deadline := resilience.CellDeadline(opt.Exec.CellTimeout, cfgs[i].Nodes, cfgs[i].Flows)
	ctl := scenario.NewControl()
	if opt.Exec.Control.Interrupted() {
		ctl.Interrupt()
	}
	if deadline <= 0 {
		return runCellSafe(run, i, ctl)
	}

	type cellResult struct {
		v   T
		err error
	}
	ch := make(chan cellResult, 1)
	var state atomic.Int32
	go func() {
		v, err := runCellSafe(run, i, ctl)
		if state.CompareAndSwap(cellRunning, cellCommitted) {
			ch <- cellResult{v, err}
		}
		// Abandoned: the watchdog won the CAS; nothing may be published.
	}()

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
	}

	beatAge := deadline
	if opt.Progress != nil {
		if lb := opt.Progress.LastBeat(w); !lb.IsZero() {
			beatAge = time.Since(lb)
		}
	}
	ctl.Interrupt()
	grace := min(deadline, maxGrace)
	to := &resilience.CellTimeout{Index: i, Deadline: deadline, LastBeat: beatAge}
	gt := time.NewTimer(grace)
	defer gt.Stop()
	select {
	case <-ch:
		// The cell honored the interrupt; its partial result is discarded
		// (a timed-out cell has no trustworthy payload).
	case <-gt.C:
		if state.CompareAndSwap(cellRunning, cellAbandoned) {
			to.Abandoned = true
		} else {
			<-ch // committed at the wire; drain and discard
		}
	}
	var zero T
	return zero, to
}

// runCellSafe invokes run with panic quarantine.
func runCellSafe[T any](run func(int, *scenario.Control) (T, error), i int, ctl *scenario.Control) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v = zero
			err = &resilience.CellPanic{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return run(i, ctl)
}

// cellFailure enriches a cell's error with its identity, fires the
// failure hook (quarantine emitters), and wraps it for the failure set.
func cellFailure(opt Options, i int, key string, cfg *scenario.Config, err error) error {
	if p, ok := asPanic(err); ok {
		p.Index, p.Key, p.Spec = i, key, cfg
	}
	var t *resilience.CellTimeout
	if errors.As(err, &t) {
		t.Index, t.Key, t.Spec = i, key, cfg
	}
	ce := &CellError{Index: i, Key: key, Spec: cfg, Err: err}
	if opt.Exec.OnFailure != nil {
		opt.Exec.OnFailure(ce)
		if ce.Repro != "" {
			if p, ok := asPanic(err); ok {
				p.Repro = ce.Repro
			}
		}
	}
	return ce
}

// asPanic unwraps err to a *resilience.CellPanic, if it is one.
func asPanic(err error) (*resilience.CellPanic, bool) {
	var p *resilience.CellPanic
	if errors.As(err, &p) {
		return p, true
	}
	return nil, false
}

// decodeCell decodes a journaled payload into a fresh T, so deduped
// cells never share mutable structure with their leader.
func decodeCell[T any](blob []byte) (T, error) {
	var v T
	if err := json.Unmarshal(blob, &v); err != nil {
		return v, err
	}
	return v, nil
}

// Run executes every scenario configuration and returns the results in
// input order, regardless of completion order. On error the slice is
// nil and the error is that of the lowest-indexed failing cell — unless
// Exec.KeepGoing is set, in which case the partial results are returned
// with a Failures error and failed cells hold zero Results.
//
// With Exec.Journal set, completed cells are durably recorded under the
// "result" scope (or Exec.Scope if non-empty) and a killed sweep resumes
// to byte-identical aggregate output; cells loaded from the journal get
// their Config reattached from the input slice, so pointer-typed config
// fields (fault plans, LDR overrides) keep their original identity.
func Run(cfgs []scenario.Config, opt Options) ([]scenario.Result, error) {
	if opt.Exec.Scope == "" {
		opt.Exec.Scope = "result"
	}
	out, err := RunCells(cfgs, opt, func(i int, ctl *scenario.Control) (scenario.Result, error) {
		return scenario.RunWithControl(cfgs[i], nil, ctl, opt.Exec.Control)
	})
	for i := range out {
		if out[i].Collector != nil {
			out[i].Config = cfgs[i]
		}
	}
	return out, err
}
