package modelcheck

// Witness extraction: an abstract violating trace becomes a
// conformance.Spec the full MAC/radio simulator can replay.
//
// Time mapping. Each externally scheduled action slot k (originations,
// resets) maps to virtual time t(k) = 500 ms + k·250 ms — enough spacing
// that one slot's radio/MAC cascade settles before the next fires.
// Deliveries need no scheduling: the radio delivers within microseconds,
// so a whole handler cascade happens at the time of its causal ROOT
// action, which is why the checker tracks a root slot on every emission
// (env.go). Message losses become link outages placed by root times:
//
//   - a crossing the abstract schedule delivered must get through, so
//     its link is up at t(root);
//   - a crossing that was explicitly dropped, or still in flight at the
//     violation with a root AFTER every delivered root on that link,
//     must not happen, so the link goes down permanently between the
//     last delivered root and the first suppressed one (the shape of
//     the van Glabbeek witness: sever B–D before B's re-solicitation);
//   - an in-flight crossing with an EARLY root is simply a message the
//     abstract schedule had not consumed yet — the violation state does
//     not depend on it, and the replay lets it through.
//
// An explicit early drop (interleaved with needed deliveries on the same
// link at the same root time) cannot be honored by any outage window;
// the builder emits a best-effort ±120 ms window and flags the Note. The
// abstract model can also reorder deliveries arbitrarily; the radio
// cannot. Both are heuristic gaps — the bridge test, which re-runs every
// committed seed through the full simulator, is the arbiter.

import (
	"sort"
	"time"

	"github.com/manetlab/ldr/internal/conformance"
)

const (
	slotBase   = 500 * time.Millisecond
	slotPitch  = 250 * time.Millisecond
	crashHold  = 100 * time.Millisecond
	dropWindow = 120 * time.Millisecond
	witAuditMS = 50
	specTail   = 1500 * time.Millisecond
)

// slotTime maps an action slot to replay virtual time. Root -1 (initial
// protocol start) precedes every slot.
func slotTime(slot int) time.Duration {
	if slot < 0 {
		return 50 * time.Millisecond
	}
	return slotBase + time.Duration(slot)*slotPitch
}

// Spec converts the witness into a committed-seed conformance spec. It
// fails if the trace uses an action the full simulator cannot express
// (volatile resets) or the topology has no unit-disk layout.
func (w *Witness) Spec(note string) (conformance.Spec, error) {
	g := w.Scenario.Graph
	pts, err := Layout(g)
	if err != nil {
		return conformance.Spec{}, err
	}
	script := &conformance.Script{Positions: make([][2]float64, g.N)}
	for i, p := range pts {
		script.Positions[i] = [2]float64{p.X, p.Y}
	}

	for slot, a := range w.Trace {
		if step := kinds[a.Kind].witness; step != nil {
			if err := step(w.Scenario, script, slot, a); err != nil {
				return conformance.Spec{}, err
			}
		}
	}

	// Per undirected link a < b, in (a, b) order: the latest delivered
	// root (must pass; -2, below root -1, for none, so an all-suppressed
	// link still splits cleanly) vs suppressed crossings (must not).
	n := g.N
	link := func(e emission) int { return min(int(e.from), int(e.to))*n + max(int(e.from), int(e.to)) }
	maxUps, downs := make([]int, n*n), make([][]emission, n*n)
	for li := range maxUps {
		maxUps[li] = -2
	}
	for _, e := range w.delivered {
		maxUps[link(e)] = max(maxUps[link(e)], e.root)
	}
	for _, list := range [][]emission{w.drops, w.inflight} {
		for _, e := range list {
			downs[link(e)] = append(downs[link(e)], e)
		}
	}
	approx := false
	for li, down := range downs {
		a, b, maxUp := li/n, li%n, maxUps[li]
		minLate := -1
		haveLate := false
		for _, d := range down {
			if d.root > maxUp && (!haveLate || d.root < minLate) {
				minLate, haveLate = d.root, true
			}
		}
		if haveLate {
			start := slotTime(minLate) - dropWindow
			if maxUp > -2 {
				start = (slotTime(maxUp) + slotTime(minLate)) / 2
			}
			script.Faults = append(script.Faults, conformance.ScriptFault{
				Kind: "linkdown", AtMS: start.Milliseconds(),
				DurationMS: -1, Nodes: []int{a, b},
			})
		}
		// Early suppressions: in-flight ones are harmless by construction
		// (the violation state never consumed them); explicit early drops
		// get a best-effort window and taint the spec.
		seen := map[int]bool{}
		for _, d := range down {
			if d.root > maxUp || !d.explicit || seen[d.root] {
				continue
			}
			seen[d.root] = true
			approx = true
			t := slotTime(d.root)
			script.Faults = append(script.Faults, conformance.ScriptFault{
				Kind: "linkdown", AtMS: (t - dropWindow).Milliseconds(),
				DurationMS: (2 * dropWindow).Milliseconds(), Nodes: []int{a, b},
			})
		}
	}
	if approx {
		note += " [approximate replay: an explicit drop is interleaved with needed deliveries]"
	}

	sort.Slice(script.Faults, func(i, j int) bool { return script.Faults[i].AtMS < script.Faults[j].AtMS })
	end := slotTime(max(len(w.Trace)-1, 0)) + specTail
	return conformance.Spec{
		Protocol:   w.Scenario.Protocol,
		Nodes:      g.N,
		Flows:      0,
		SimTimeSec: end.Seconds(),
		Seed:       w.Scenario.Seed,
		Profile:    "none",
		AuditMS:    witAuditMS,
		Note:       note,
		Script:     script,
	}, nil
}
