package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/scenario"
)

// chaosMetrics is the per-run measurement vector for the Chaos table:
// the usual performance pair plus everything the fault instruments saw.
// Exported fields with JSON tags because journaled chaos sweeps persist
// one chaosMetrics per cell (scope "chaos"); the counters are integers,
// so the round trip is exact and resumed tables stay byte-identical.
type chaosMetrics struct {
	Delivery float64 `json:"delivery"` // %
	NetLoad  float64 `json:"net_load"` // control pkts per delivered data pkt
	Loops    uint64  `json:"loops"`    // successor-graph cycles flagged by the auditor
	Ordering uint64  `json:"ordering"` // (seq, fd) ordering-criterion breaches
	Audits   uint64  `json:"audits"`   // table-snapshot sweeps taken
	Crashes  int     `json:"crashes"`  // node crashes the injector executed
}

func measureChaos(res scenario.Result) chaosMetrics {
	c := res.Collector
	return chaosMetrics{
		Delivery: 100 * c.DeliveryRatio(),
		NetLoad:  c.NetworkLoad(),
		Loops:    c.LoopViolations,
		Ordering: c.OrderingViolations,
		Audits:   c.AuditSnapshots,
		Crashes:  res.Faults.Crashes,
	}
}

// profileHeader titles one profile's section of the Chaos and Adversary
// tables, which share their 50-node, 10-flow audited rig.
func profileHeader(o Options, table, profile, columns string) string {
	return fmt.Sprintf("\n%s — profile %s (50 nodes, 10 flows, %v sim, audit every %v, %d trials)\n%s\n",
		table, profile, o.SimTime, o.AuditCadence, o.Trials, columns)
}

// Chaos runs the fault-injection comparison: every protocol under every
// fault profile, at the two pause-time extremes (0 = constant motion,
// SimTime = static), with the continuous loopcheck auditor scoring loop
// and ordering violations throughout. This is the regime of the van
// Glabbeek et al. AODV-loop construction: under the reboot profiles AODV
// accumulates loop counts while LDR — whose destinations persist their
// own sequence numbers and whose labels enforce the ordering criterion —
// stays at zero. DSR is source-routed (no distributed next-hop tables to
// loop), so its violation columns are structurally zero; OLSR's are
// transient artifacts of link-state convergence.
//
// The rendered table is byte-identical at any worker count.
func Chaos(o Options) error {
	o = o.Defaults()
	var secs []section[chaosMetrics]
	for _, profile := range o.FaultProfiles {
		plan, err := fault.Profile(profile, 50, o.SimTime)
		if err != nil {
			return err
		}
		sec := section[chaosMetrics]{header: profileHeader(o, "Chaos", profile, fmt.Sprintf(
			"%-8s %8s %16s %12s %8s %8s %8s %8s",
			"proto", "pause_s", "delivery %", "net load", "loops", "order", "audits", "crashes"))}
		for _, pause := range []time.Duration{0, o.SimTime} {
			for _, proto := range o.Protocols {
				cells := o.trials(proto, 50, 10, pause, func(cfg *scenario.Config) {
					cfg.FaultPlan = &plan
					cfg.AuditCadence = o.AuditCadence
				})
				sec.rows = append(sec.rows, row[chaosMetrics]{cells, func(w io.Writer, ms []chaosMetrics) {
					var agg chaosMetrics
					for _, m := range ms {
						agg.Loops += m.Loops
						agg.Ordering += m.Ordering
						agg.Audits += m.Audits
						agg.Crashes += m.Crashes
					}
					fmt.Fprintf(w, "%-8s %8.0f %s %12.3f %8d %8d %8d %8d\n", proto, pause.Seconds(),
						ci(summarize(ms, func(m chaosMetrics) float64 { return m.Delivery })),
						summarize(ms, func(m chaosMetrics) float64 { return m.NetLoad }).Mean,
						agg.Loops, agg.Ordering, agg.Audits, agg.Crashes)
				}})
			}
		}
		secs = append(secs, sec)
	}
	return runTable(o, "chaos", measureChaos, secs)
}
