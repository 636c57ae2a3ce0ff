package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the traced pass's spans in memory and writes them at exit
// as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). Spans are
// recorded from the harness's side of each layer boundary only: one per
// workload pass, cell, simulated-second slice and driver, plus counter
// events for queue depths and the model checker's frontier. Handler calls
// are far too many for a span each; their sampled time rides on the slice
// that contains them.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	events []traceEvent
}

// traceEvent is one Chrome trace event. Ts and Dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span records a complete span; parent names the span that caused it.
func (t *tracer) span(cat, name, parent string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	if args == nil {
		args = map[string]any{}
	}
	if parent != "" {
		args["parent"] = parent
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{Name: name, Cat: cat, Ph: "X", Ts: us(start.Sub(t.t0)), Dur: us(dur), Pid: 1, Tid: tid, Args: args})
	t.mu.Unlock()
}

// counter records sampled values under one name.
func (t *tracer) counter(cat, name string, tid int, at time.Time, values map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, traceEvent{Name: name, Cat: cat, Ph: "C", Ts: us(at.Sub(t.t0)), Pid: 1, Tid: tid, Args: values})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// cellSpans turns one traced cell into its cell span and slice spans.
func (t *tracer) cellSpans(workload, name string, start time.Time, slices []float64, tr *cellTrace) {
	wall := time.Duration(sum(slices) * float64(time.Second))
	t.span("cell", name, workload, tr.worker, start, wall, map[string]any{
		"build_ms":         float64(tr.buildNs) / 1e6,
		"handle_ctl_calls": tr.h.ctl.calls, "handle_data_calls": tr.h.data.calls,
		"originate_calls": tr.h.orig.calls, "data_failed_calls": tr.h.fail.calls,
		"handler_ms": tr.h.totalNs() / 1e6,
	})
	// A swept cell's first slice is its construction; the samples belong to
	// the simulated seconds after it.
	at := start
	for len(slices) > len(tr.slices) {
		at = at.Add(time.Duration(slices[0] * float64(time.Second)))
		slices = slices[1:]
	}
	for i, s := range tr.slices {
		d := time.Duration(slices[i] * float64(time.Second))
		t.span("slice", "sim-second", name, tr.worker, at, d, map[string]any{
			"sim_s": i + 1, "events": s.events, "handler_ms": float64(s.handlerNs) / 1e6,
		})
		at = at.Add(d)
		t.counter("queue", "depth", tr.worker, at, map[string]any{"sim.pending": s.pending, "mac.queued": s.queueSum})
	}
}
