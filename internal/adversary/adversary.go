// Package adversary turns simulated nodes Byzantine: a seeded,
// declarative engine compromises chosen nodes and makes them answer
// overheard route requests with forged, inflated-seqno replies, while
// the rest of the toolchain — the loopcheck auditor, the conformance
// conservation harness, the metrics collector — keeps watching the
// honest remainder of the network.
//
// The point is the LDR paper's §5 claim: destination-controlled sequence
// numbers plus feasible-distance labels keep the *honest* successor
// graph loop-free even when a neighbor lies, where AODV's acceptance
// rule (believe any equal-or-newer sequence number) lets one forged
// reply stitch honest nodes into a cycle. A Byzantine node's own table
// is unattested — it can claim anything, so a compromised node exposes
// an empty table to the auditors and every invariant is quantified over
// correct nodes only, the standard convention in Byzantine analysis.
//
// Accounting discipline: a forged reply counts an initiation before
// transmission, keeping the control ledgers balanced, and the wrapped
// protocol's held packets stay visible to the conformance census.
//
// Determinism matches internal/fault: the engine draws victims and
// forged hop counts from its own splittable stream (conventionally
// root.Split("adversary")) with a sub-stream for the victims and one per
// wrapped node, so adding an adversary plan never perturbs mobility,
// traffic, MAC, or fault randomness, and the same seed compromises the
// same nodes at any sweep worker count.
package adversary

import (
	"slices"
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// forgedSeq is the absolute sequence number forged into replies —
// enormous but far from uint32 wraparound; for LDR it becomes the
// timestamp half of the packed Seqno, equally dominant. maxHopLie bounds
// the lying hop counts, drawn uniformly from [0, maxHopLie]: the *same*
// forged number with *varying* distances is what bends AODV's
// equal-seqno acceptance into honest-node loops.
const (
	forgedSeq = 1 << 30
	maxHopLie = 4
)

// Plan is a named, declarative compromise schedule, the adversarial
// sibling of fault.Plan — the two compose freely in one scenario.
// Victims are the explicit Nodes list or Count random picks; At delays
// the forging (zero forges from simulation start). A plan with neither
// is empty and compromises nobody.
type Plan struct {
	Name  string
	Nodes []int         // explicit victims; empty → Count random picks
	Count int           // random victims when Nodes is empty
	At    time.Duration // activation time
}

// Empty reports whether the plan compromises nobody.
func (p Plan) Empty() bool { return len(p.Nodes) == 0 && p.Count == 0 }

// Stats counts what the compromised nodes actually did. The counters
// are engine-wide sums over every compromised node.
type Stats struct {
	Compromised int    // distinct nodes turned Byzantine
	ForgedRREPs uint64 // inflated-seqno replies forged
}

// Engine executes a Plan against a network: it wraps the chosen nodes'
// protocols in Byzantine interceptors before the simulation starts.
// Create one per run with NewEngine and call Install before
// routing.Network.Start.
type Engine struct {
	nw   *routing.Network
	plan Plan
	src  *rng.Source

	// Stats accumulates attack activity across all compromised nodes.
	Stats Stats

	compromised []routing.NodeID
}

// NewEngine binds a plan to a network. src must be a dedicated stream
// (conventionally root.Split("adversary")).
func NewEngine(nw *routing.Network, plan Plan, src *rng.Source) *Engine {
	return &Engine{nw: nw, plan: plan, src: src}
}

// Install resolves the plan's victims and wraps their protocol
// instances. Must run before the network starts (wrapping swaps the
// node's bound protocol).
func (e *Engine) Install() {
	for _, id := range e.victims() {
		if id < 0 || id >= len(e.nw.Nodes) || e.IsCompromised(routing.NodeID(id)) {
			continue
		}
		node := e.nw.Nodes[id]
		node.SetProtocol(newWrapped(e, node, e.src.Split("node"+strconv.Itoa(id))))
		e.compromised = append(e.compromised, routing.NodeID(id))
	}
	e.Stats.Compromised = len(e.compromised)
}

// victims resolves the plan's targets: the explicit list, or Count
// random distinct nodes.
func (e *Engine) victims() []int {
	if len(e.plan.Nodes) > 0 {
		return e.plan.Nodes
	}
	perm := e.src.Split("victims").Perm(len(e.nw.Nodes))
	return perm[:min(e.plan.Count, len(perm))]
}

// IsCompromised reports whether a node is Byzantine.
func (e *Engine) IsCompromised(id routing.NodeID) bool {
	return slices.Contains(e.compromised, id)
}
