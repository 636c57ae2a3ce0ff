// Record/replay: the full routing.TraceEvent stream of a run is encoded
// to a compact varint log, together with a fingerprint of the run's
// random-draw and event counts. Two runs of the same scenario must
// produce byte-identical logs — across sweep worker counts, across
// repeated runs in one process — and when they do not, Diff pins the
// divergence to the first event that differs.

package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// Fingerprint condenses a run's deterministic totals: if any field
// differs between two runs of one scenario, the runs diverged even if
// their packet traces happen to agree.
type Fingerprint struct {
	TraceEvents uint64 // packet lifecycle events logged
	SimEvents   uint64 // simulator events executed
	RNGDraws    uint64 // random words drawn across every stream
	Initiated   uint64
	Delivered   uint64
	Dropped     uint64
	Transmitted uint64
}

// Log is a compact, append-only record of a run's trace-event stream.
// The zero value is ready to use; Log implements routing.Tracer.
//
// Encoding, per event: uvarint delta of At against the previous event
// (nanoseconds), one byte of kind, varint Node, varint Src, varint Dst,
// uvarint ID, varint Next, one byte of drop reason. Delta-encoded times
// and varints keep the log a few bytes per event.
type Log struct {
	Fingerprint Fingerprint

	data   []byte
	count  int
	lastAt time.Duration
}

var _ routing.Tracer = (*Log)(nil)

// Trace implements routing.Tracer by appending the event to the log.
func (l *Log) Trace(ev routing.TraceEvent) {
	l.data = binary.AppendUvarint(l.data, uint64(ev.At-l.lastAt))
	l.lastAt = ev.At
	l.data = append(l.data, byte(ev.Kind))
	l.data = binary.AppendVarint(l.data, int64(ev.Node))
	l.data = binary.AppendVarint(l.data, int64(ev.Src))
	l.data = binary.AppendVarint(l.data, int64(ev.Dst))
	l.data = binary.AppendUvarint(l.data, ev.ID)
	l.data = binary.AppendVarint(l.data, int64(ev.Next))
	l.data = append(l.data, byte(ev.Reason))
	l.count++
}

// Len returns the number of logged events.
func (l *Log) Len() int { return l.count }

// Bytes returns the encoded stream (not a copy).
func (l *Log) Bytes() []byte { return l.data }

// Events decodes and returns every logged event.
func (l *Log) Events() ([]routing.TraceEvent, error) {
	out := make([]routing.TraceEvent, 0, l.count)
	d := decoder{data: l.data}
	for {
		ev, ok, err := d.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, ev)
	}
}

// decoder walks an encoded event stream.
type decoder struct {
	data []byte
	off  int
	at   time.Duration
}

func (d *decoder) next() (routing.TraceEvent, bool, error) {
	if d.off >= len(d.data) {
		return routing.TraceEvent{}, false, nil
	}
	fail := func() (routing.TraceEvent, bool, error) {
		return routing.TraceEvent{}, false, fmt.Errorf("conformance: truncated log at offset %d", d.off)
	}
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(d.data[d.off:])
		if n <= 0 {
			return 0, false
		}
		d.off += n
		return v, true
	}
	sv := func() (int64, bool) {
		v, n := binary.Varint(d.data[d.off:])
		if n <= 0 {
			return 0, false
		}
		d.off += n
		return v, true
	}
	dt, ok := uv()
	if !ok {
		return fail()
	}
	if d.off >= len(d.data) {
		return fail()
	}
	kind := d.data[d.off]
	d.off++
	node, ok := sv()
	if !ok {
		return fail()
	}
	src, ok := sv()
	if !ok {
		return fail()
	}
	dst, ok := sv()
	if !ok {
		return fail()
	}
	id, ok := uv()
	if !ok {
		return fail()
	}
	next, ok := sv()
	if !ok {
		return fail()
	}
	if d.off >= len(d.data) {
		return fail()
	}
	reason := d.data[d.off]
	d.off++

	d.at += time.Duration(dt)
	return routing.TraceEvent{
		At:     d.at,
		Kind:   routing.TraceEventKind(kind),
		Node:   routing.NodeID(node),
		Src:    routing.NodeID(src),
		Dst:    routing.NodeID(dst),
		ID:     id,
		Next:   routing.NodeID(next),
		Reason: metrics.DropReason(reason),
	}, true, nil
}

// Capture runs a scenario with a Log attached as its tracer and returns
// the log, fingerprint filled.
func Capture(cfg scenario.Config) (*Log, error) {
	log, _, err := capture(cfg)
	return log, err
}

// capture is Capture that also hands back the run's collector, for
// tests that pin it beside the fingerprint.
func capture(cfg scenario.Config) (*Log, *metrics.Collector, error) {
	log := &Log{}
	var nw *routing.Network
	var inst *scenario.Instruments
	res, err := scenario.RunWithControl(cfg, func(n *routing.Network, i *scenario.Instruments) {
		nw, inst = n, i
		nw.SetTracer(log)
	})
	if err != nil {
		return nil, nil, err
	}
	col := res.Collector
	log.Fingerprint = Fingerprint{
		TraceEvents: uint64(log.count),
		SimEvents:   res.Events,
		RNGDraws:    nw.Root.Draws() + inst.Root.Draws(),
		Initiated:   col.DataInitiated,
		Delivered:   col.DataDelivered,
		Dropped:     col.DataDropped,
		Transmitted: col.DataTransmitted,
	}
	return log, col, nil
}

// Divergence describes where two logs first disagree. Index is the
// 0-based event position; A/B are the differing events, nil on the side
// whose stream ended early. Index -1 with a Detail means the event
// streams matched but the fingerprints did not.
type Divergence struct {
	Index  int
	A, B   *routing.TraceEvent
	Detail string
}

// String renders the divergence for reports.
func (d *Divergence) String() string {
	switch {
	case d.Index < 0:
		return "fingerprint divergence: " + d.Detail
	case d.A == nil:
		return fmt.Sprintf("event %d: stream A ended, B has %+v", d.Index, *d.B)
	case d.B == nil:
		return fmt.Sprintf("event %d: stream B ended, A has %+v", d.Index, *d.A)
	default:
		return fmt.Sprintf("event %d: A %+v != B %+v", d.Index, *d.A, *d.B)
	}
}

// Diff compares two logs and returns nil when they are byte-identical
// with matching fingerprints, or the first divergence otherwise.
func Diff(a, b *Log) *Divergence {
	if !bytes.Equal(a.data, b.data) {
		da, db := decoder{data: a.data}, decoder{data: b.data}
		for i := 0; ; i++ {
			evA, okA, errA := da.next()
			evB, okB, errB := db.next()
			if errA != nil || errB != nil {
				return &Divergence{Index: i, Detail: "undecodable log"}
			}
			switch {
			case !okA && !okB:
				// Same events, different encoding cannot happen with one
				// encoder version; treat as identical streams.
				return &Divergence{Index: i, Detail: "byte-level divergence with equal events"}
			case !okA:
				return &Divergence{Index: i, B: &evB}
			case !okB:
				return &Divergence{Index: i, A: &evA}
			case evA != evB:
				return &Divergence{Index: i, A: &evA, B: &evB}
			}
		}
	}
	if a.Fingerprint != b.Fingerprint {
		return &Divergence{Index: -1, Detail: fmt.Sprintf("%+v vs %+v", a.Fingerprint, b.Fingerprint)}
	}
	return nil
}
