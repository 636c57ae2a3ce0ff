package experiments

import (
	"fmt"
	"io"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/stats"
)

// advMetrics is the per-run measurement vector for the Adversary table.
// Exported fields with JSON tags because journaled adversary sweeps
// persist one advMetrics per cell (scope "adversary"); the counters are
// integers, so the round trip is exact and resumed tables stay
// byte-identical.
type advMetrics struct {
	Delivery float64 `json:"delivery"`  // %
	CtrlTx   uint64  `json:"ctrl_tx"`   // hop-wise control transmissions (CAF numerator/denominator)
	Loops    uint64  `json:"loops"`     // honest-subgraph successor cycles flagged by the auditor
	Ordering uint64  `json:"ordering"`  // (seq, fd) ordering-criterion breaches
	AdvDrops uint64  `json:"adv_drops"` // data packets blackholed/grayholed (DropAdversary)
	Forged   uint64  `json:"forged"`    // inflated-seqno RREPs forged
	Replayed uint64  `json:"replayed"`  // stale recorded messages re-broadcast
	Storm    uint64  `json:"storm"`     // forged RREQs + RERRs flooded
	FeasRej  uint64  `json:"feas_rej"`  // LDR NDC refusals of advertisements
	Suppr    uint64  `json:"suppr"`     // RREQs + RERRs discarded by receive rate limiting
}

func measureAdversary(res scenario.Result) advMetrics {
	c := res.Collector
	return advMetrics{
		Delivery: 100 * c.DeliveryRatio(),
		CtrlTx:   c.TotalControlTransmitted(),
		Loops:    c.LoopViolations,
		Ordering: c.OrderingViolations,
		AdvDrops: c.DroppedBy(metrics.DropAdversary),
		Forged:   res.Adversary.ForgedRREPs,
		Replayed: res.Adversary.Replayed,
		Storm:    res.Adversary.StormRREQs + res.Adversary.StormRERRs,
		FeasRej:  c.FeasibilityRejections,
		Suppr:    c.RREQSuppressed + c.RERRSuppressed,
	}
}

// Adversary runs the attack-impact comparison: every protocol under every
// adversary profile, each attacked run paired with an attack-free baseline
// on the same seed so the control-amplification factor (CAF = attacked
// control transmissions / baseline control transmissions, averaged over
// per-seed ratios) isolates the attack's cost from normal protocol
// chatter. The continuous loopcheck auditor scores the honest subgraph
// throughout: compromised nodes expose empty tables, so a non-zero loop
// count means honest nodes were stitched into a cycle by forged state —
// the AODV failure mode under seqno-forge that LDR's feasibility condition
// (NDC) refuses, visible in the feas_rej column.
//
// The rendered table is byte-identical at any worker count.
func Adversary(o Options) error {
	o = o.Defaults()
	var secs []section[advMetrics]
	for _, profile := range o.AdversaryProfiles {
		plan, err := adversary.Profile(profile, 50, o.SimTime)
		if err != nil {
			return err
		}
		sec := section[advMetrics]{header: profileHeader(o, "Adversary", profile, fmt.Sprintf(
			"%-8s %16s %16s %7s %9s %7s %8s %7s %8s %7s %6s %6s",
			"proto", "delivery %", "baseline %", "caf",
			"advdrop", "forged", "replay", "storm", "feasrej", "suppr", "loops", "order"))}
		for _, proto := range o.Protocols {
			// Baseline first, attacked second: the row consumes pairs.
			var cells []scenario.Config
			for _, seed := range o.trialSeeds() {
				base := o.Cell(proto, 50, 10, 0, seed)
				base.AuditCadence = o.AuditCadence
				attacked := base
				if len(plan.Compromises) > 0 {
					attacked.AdversaryPlan = &plan
				}
				cells = append(cells, base, attacked)
			}
			sec.rows = append(sec.rows, row[advMetrics]{cells, func(w io.Writer, ms []advMetrics) {
				var baseline, attacked []advMetrics
				var cafs []float64
				var agg advMetrics
				for ; len(ms) > 0; ms = ms[2:] {
					b, a := ms[0], ms[1]
					baseline, attacked = append(baseline, b), append(attacked, a)
					if b.CtrlTx > 0 {
						cafs = append(cafs, float64(a.CtrlTx)/float64(b.CtrlTx))
					}
					agg.Loops += a.Loops
					agg.Ordering += a.Ordering
					agg.AdvDrops += a.AdvDrops
					agg.Forged += a.Forged
					agg.Replayed += a.Replayed
					agg.Storm += a.Storm
					agg.FeasRej += a.FeasRej
					agg.Suppr += a.Suppr
				}
				delivery := func(m advMetrics) float64 { return m.Delivery }
				fmt.Fprintf(w, "%-8s %s %s %7.2f %9d %7d %8d %7d %8d %7d %6d %6d\n", proto,
					ci(summarize(attacked, delivery)), ci(summarize(baseline, delivery)), stats.Mean(cafs),
					agg.AdvDrops, agg.Forged, agg.Replayed, agg.Storm,
					agg.FeasRej, agg.Suppr, agg.Loops, agg.Ordering)
			}})
		}
		secs = append(secs, sec)
	}
	return runTable(o, "adversary", measureAdversary, secs)
}
