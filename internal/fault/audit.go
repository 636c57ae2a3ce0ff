package fault

import (
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
)

// maxRecords caps the retained violation samples (counters are always
// exact).
const maxRecords = 16

// AuditConfig parameterizes the continuous invariant auditor.
type AuditConfig struct {
	// Cadence is the virtual-time period between table snapshots, the
	// first one Cadence in. Only Start reads it (zero schedules nothing);
	// CheckNow drives the auditor by hand.
	Cadence time.Duration
	// Until is the last instant a snapshot may fire (required: it bounds
	// the self-rescheduling chain so the auditor cannot keep a drained
	// event queue alive).
	Until time.Duration
}

// Record is one retained violation sample with its detection time.
type Record struct {
	At time.Duration
	V  loopcheck.Violation
}

// Auditor snapshots every routing table on a virtual-time cadence and
// scores violations into the network's metrics collector: each detected
// successor-graph cycle increments LoopViolations, each broken
// (seq, fd) ordering edge increments OrderingViolations, and every sweep
// increments AuditSnapshots. The first maxRecords violations are kept
// verbatim for diagnosis. The underlying loopcheck.Checker reuses its
// buffers, so a clean sweep allocates nothing once warm.
type Auditor struct {
	nw      *routing.Network
	cfg     AuditConfig
	checker *loopcheck.Checker

	// Records holds the first violations seen, in detection order.
	Records []Record
}

// NewAuditor builds an auditor for the network. Call Start before the
// simulation runs, or drive it manually with CheckNow.
func NewAuditor(nw *routing.Network, cfg AuditConfig) *Auditor {
	return &Auditor{nw: nw, cfg: cfg, checker: loopcheck.NewChecker()}
}

// Start schedules the periodic sweeps up to cfg.Until.
func (a *Auditor) Start() {
	a.nw.Sim.Every(a.cfg.Cadence, a.cfg.Cadence, a.cfg.Until, func() { a.CheckNow() })
}

// CheckNow runs one sweep immediately and returns the number of
// violations it found.
func (a *Auditor) CheckNow() int {
	col := a.nw.Collector
	col.AuditSnapshots++
	vs := a.checker.Check(a.nw.Nodes)
	for _, v := range vs {
		if len(v.Cycle) > 0 {
			col.LoopViolations++
		} else {
			col.OrderingViolations++
		}
		if len(a.Records) < maxRecords {
			a.Records = append(a.Records, Record{At: a.nw.Sim.Now(), V: v})
		}
	}
	return len(vs)
}
