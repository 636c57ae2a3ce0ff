// Package conformance audits packet conservation during simulation runs
// and provides the record/replay and scenario-spec machinery built on it.
//
// The paper's evaluation (§4) is a comparison of per-run counters —
// delivery ratio, network load, latency — so the counters themselves
// need an integrity argument. This package supplies it as three layers:
//
//   - a Ledger (a routing.Tracer) that follows every data packet by
//     (Src, ID) from origination to its first terminal event and flags
//     lifecycle violations: double origination, duplicate delivery,
//     drops of already-terminal packets;
//   - a Harness that, on a virtual-time cadence and at end of run,
//     cross-checks the ledger against the metrics.Collector, enforces
//     the conservation equation DataInitiated == DataDelivered +
//     DataDropped + InFlight, verifies control-packet initiated ≤
//     transmitted ledgers, and runs a census of every place a live
//     packet can legitimately wait (protocol pending buffers, MAC
//     queues, radio delay-fault registry) to catch packets that
//     vanished without an accounting event;
//   - Check, which runs a scenario under both.
//
// Census semantics are one-directional on purpose: every outstanding
// packet must be somewhere (no vanishing), but a censused packet need
// not be outstanding — under radio duplication or crash-interrupted
// ACKs, stale copies of already-terminal packets legitimately linger in
// queues until they die quietly (their terminal events are suppressed
// by first-terminal-event-wins accounting, see metrics.Collector).
// The census assumes data packets travel by unicast, which holds for
// all four protocols here; only control packets are broadcast.
package conformance

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// PacketKey identifies a data packet network-wide.
type PacketKey struct {
	Src routing.NodeID
	ID  uint64
}

// ViolationKind classifies a conservation violation.
type ViolationKind uint8

// The conservation violations the harness can detect.
const (
	// DoubleOriginate: two originate events for one (Src, ID).
	DoubleOriginate ViolationKind = iota + 1
	// DuplicateDelivery: a deliver event for an already-terminal packet.
	DuplicateDelivery
	// LateDrop: a drop event for an already-terminal packet.
	LateDrop
	// Untracked: a deliver/drop event for a packet never originated.
	Untracked
	// VanishedPacket: an outstanding packet found in no queue, buffer,
	// or delayed-delivery registry during a census.
	VanishedPacket
	// CounterMismatch: collector counters disagree with the ledger or
	// the conservation equation does not balance.
	CounterMismatch
	// ControlLedger: some control kind has initiated > transmitted.
	ControlLedger

	numViolationKinds
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case DoubleOriginate:
		return "double-originate"
	case DuplicateDelivery:
		return "duplicate-delivery"
	case LateDrop:
		return "late-drop"
	case Untracked:
		return "untracked"
	case VanishedPacket:
		return "vanished-packet"
	case CounterMismatch:
		return "counter-mismatch"
	case ControlLedger:
		return "control-ledger"
	default:
		return "violation"
	}
}

// Violation is one detected conservation breach.
type Violation struct {
	At     time.Duration
	Kind   ViolationKind
	Key    PacketKey // zero for run-level violations
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%v %s pkt(src=%d,id=%d): %s", v.At, v.Kind, v.Key.Src, v.Key.ID, v.Detail)
}

// maxRecordedViolations bounds the retained Violation records; counts
// per kind are exact regardless.
const maxRecordedViolations = 64

type pktFate uint8

const (
	fateDelivered pktFate = iota + 1
	fateDropped
)

// Ledger is a routing.Tracer that follows every data packet's lifecycle
// independently of the metrics collector, so the two can be
// cross-checked against each other.
type Ledger struct {
	Originated uint64
	Delivered  uint64
	Dropped    uint64

	outstanding map[PacketKey]struct{} // originated, no terminal event yet
	terminal    map[PacketKey]pktFate  // first terminal event per packet

	records    []Violation
	kindCounts [numViolationKinds]uint64
}

var _ routing.Tracer = (*Ledger)(nil)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		outstanding: make(map[PacketKey]struct{}),
		terminal:    make(map[PacketKey]pktFate),
	}
}

func (l *Ledger) record(v Violation) {
	l.kindCounts[v.Kind]++
	if len(l.records) < maxRecordedViolations {
		l.records = append(l.records, v)
	}
}

// Trace implements routing.Tracer.
func (l *Ledger) Trace(ev routing.TraceEvent) {
	k := PacketKey{Src: ev.Src, ID: ev.ID}
	switch ev.Kind {
	case routing.TraceOriginate:
		if _, out := l.outstanding[k]; out {
			l.record(Violation{At: ev.At, Kind: DoubleOriginate, Key: k,
				Detail: "second originate while in flight"})
			return
		}
		if _, term := l.terminal[k]; term {
			l.record(Violation{At: ev.At, Kind: DoubleOriginate, Key: k,
				Detail: "originate after terminal event"})
			return
		}
		l.outstanding[k] = struct{}{}
		l.Originated++
	case routing.TraceDeliver:
		l.Delivered++
		if _, out := l.outstanding[k]; out {
			delete(l.outstanding, k)
			l.terminal[k] = fateDelivered
			return
		}
		if fate, term := l.terminal[k]; term {
			detail := "delivered twice"
			if fate == fateDropped {
				detail = "delivered after drop"
			}
			l.record(Violation{At: ev.At, Kind: DuplicateDelivery, Key: k, Detail: detail})
			return
		}
		l.record(Violation{At: ev.At, Kind: Untracked, Key: k,
			Detail: "delivered but never originated"})
		l.terminal[k] = fateDelivered
	case routing.TraceDrop:
		l.Dropped++
		if _, out := l.outstanding[k]; out {
			delete(l.outstanding, k)
			l.terminal[k] = fateDropped
			return
		}
		if _, term := l.terminal[k]; term {
			l.record(Violation{At: ev.At, Kind: LateDrop, Key: k,
				Detail: "dropped after terminal event (reason " + ev.Reason.String() + ")"})
			return
		}
		l.record(Violation{At: ev.At, Kind: Untracked, Key: k,
			Detail: "dropped but never originated"})
		l.terminal[k] = fateDropped
	}
	// Forward events carry no ledger obligation: stale copies of a
	// terminal packet may legitimately still be relayed.
}

// Outstanding returns the number of originated packets with no terminal
// event yet.
func (l *Ledger) Outstanding() int { return len(l.outstanding) }

// Violations returns the retained violation records (capped; see
// ViolationTotal for exact counts).
func (l *Ledger) Violations() []Violation {
	return append([]Violation(nil), l.records...)
}

// ViolationCount returns the exact number of violations of one kind.
func (l *Ledger) ViolationCount(k ViolationKind) uint64 {
	if k >= numViolationKinds {
		return 0
	}
	return l.kindCounts[k]
}

// ViolationTotal returns the exact number of violations of every kind.
func (l *Ledger) ViolationTotal() uint64 {
	var sum uint64
	for _, c := range l.kindCounts {
		sum += c
	}
	return sum
}

// Harness wires a Ledger to a network and audits conservation on demand.
type Harness struct {
	nw  *routing.Network
	led *Ledger

	census     map[PacketKey]struct{}
	vanishSeen map[PacketKey]struct{} // report each vanished packet once

	// Checks counts audits performed (ticks + the final check).
	Checks uint64
}

// NewHarness builds a harness over a network. The caller must install
// Ledger() as (part of) the network's tracer before the run starts.
func NewHarness(nw *routing.Network) *Harness {
	return &Harness{
		nw:         nw,
		led:        NewLedger(),
		census:     make(map[PacketKey]struct{}),
		vanishSeen: make(map[PacketKey]struct{}),
	}
}

// Ledger returns the harness's ledger, a routing.Tracer.
func (h *Harness) Ledger() *Ledger { return h.led }

// Schedule arranges a CheckNow every cadence of virtual time until the
// given horizon, mirroring the fault auditor's cadence scheme.
func (h *Harness) Schedule(cadence, until time.Duration) {
	h.nw.Sim.Every(cadence, cadence, until, func() { h.CheckNow() })
}

// CheckNow audits conservation at the current instant: collector vs
// ledger counters, the conservation equation, control-packet ledgers,
// and the no-vanished-packets census.
func (h *Harness) CheckNow() {
	h.Checks++
	now := h.nw.Sim.Now()
	col := h.nw.Collector

	// Collector and ledger must agree event-for-event.
	if col.DataInitiated != h.led.Originated ||
		col.DataDelivered != h.led.Delivered ||
		col.DataDropped != h.led.Dropped {
		h.led.record(Violation{At: now, Kind: CounterMismatch, Detail: fmt.Sprintf(
			"collector init/del/drop %d/%d/%d vs ledger %d/%d/%d",
			col.DataInitiated, col.DataDelivered, col.DataDropped,
			h.led.Originated, h.led.Delivered, h.led.Dropped)})
	}

	// The conservation equation, with the collector's own in-flight count.
	if int64(col.DataInitiated) != int64(col.DataDelivered)+int64(col.DataDropped)+col.InFlight() {
		h.led.record(Violation{At: now, Kind: CounterMismatch, Detail: fmt.Sprintf(
			"conservation: initiated %d != delivered %d + dropped %d + in-flight %d",
			col.DataInitiated, col.DataDelivered, col.DataDropped, col.InFlight())})
	}

	// The two independent in-flight counts must agree too.
	if col.InFlight() != int64(h.led.Outstanding()) {
		h.led.record(Violation{At: now, Kind: CounterMismatch, Detail: fmt.Sprintf(
			"in-flight: collector %d vs ledger %d", col.InFlight(), h.led.Outstanding())})
	}

	// Every initiated control packet must be accounted for: transmitted,
	// discarded pre-transmission (a crash wiping a staging queue), or
	// still sitting in a protocol staging queue right now.
	var heldCtrl [metrics.NumControlKinds]uint64
	h.nw.WalkHeldControl(func(k metrics.ControlKind) {
		if k > 0 && int(k) < metrics.NumControlKinds {
			heldCtrl[k]++
		}
	})
	for k := 1; k < metrics.NumControlKinds; k++ {
		kind := metrics.ControlKind(k)
		init := col.ControlInitiated(kind)
		tx, dropped, held := col.ControlTransmitted(kind), col.ControlDropped(kind), heldCtrl[k]
		if init > tx+dropped+held {
			h.led.record(Violation{At: now, Kind: ControlLedger, Detail: fmt.Sprintf(
				"%v initiated %d > transmitted %d + dropped %d + held %d",
				kind, init, tx, dropped, held)})
		}
	}

	// Census: every outstanding packet must be held somewhere.
	clear(h.census)
	h.nw.WalkHeldData(func(p *routing.DataPacket) {
		h.census[PacketKey{Src: p.Src, ID: p.ID}] = struct{}{}
	})
	for k := range h.led.outstanding {
		if _, ok := h.census[k]; ok {
			continue
		}
		if _, seen := h.vanishSeen[k]; seen {
			continue
		}
		h.vanishSeen[k] = struct{}{}
		h.led.record(Violation{At: now, Kind: VanishedPacket, Key: k,
			Detail: "outstanding but in no MAC queue, pending buffer, or delayed delivery"})
	}
}

// Finish runs the end-of-run audit. Outstanding packets are legal at the
// end (flows can still be mid-discovery when the clock stops); vanished
// ones are not.
func (h *Harness) Finish() { h.CheckNow() }

// CheckConfig parameterizes Check.
type CheckConfig struct {
	// Cadence between mid-run audits; zero audits only at end of run.
	Cadence time.Duration
	// Tracers are additional tracers to run alongside the ledger (a
	// replay log, say).
	Tracers []routing.Tracer
}

// Report is the outcome of a checked run.
type Report struct {
	Config     scenario.Config
	Collector  *metrics.Collector
	Violations []Violation // retained records (capped)
	Total      uint64      // exact violation count
	Checks     uint64      // audits performed
	Events     uint64      // simulator events executed
}

// Check runs one scenario under the conservation harness and reports
// every violation it detected.
func Check(cfg scenario.Config, cc CheckConfig) (Report, error) {
	nw, gen, _, err := scenario.BuildInstrumented(cfg)
	if err != nil {
		return Report{}, err
	}
	h := NewHarness(nw)
	if len(cc.Tracers) == 0 {
		nw.SetTracer(h.Ledger())
	} else {
		nw.SetTracer(append(routing.MultiTracer{h.Ledger()}, cc.Tracers...))
	}
	if cc.Cadence > 0 {
		h.Schedule(cc.Cadence, cfg.SimTime)
	}
	nw.Start()
	gen.Start()
	nw.Sim.Run(cfg.SimTime + 2*time.Second)
	nw.Stop()
	h.Finish()
	return Report{
		Config:     cfg,
		Collector:  nw.Collector,
		Violations: h.led.Violations(),
		Total:      h.led.ViolationTotal(),
		Checks:     h.Checks,
		Events:     nw.Sim.EventsFired(),
	}, nil
}
