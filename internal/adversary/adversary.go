// Package adversary turns simulated nodes Byzantine: a seeded,
// declarative engine compromises chosen nodes and makes them forge,
// replay, drop, and flood, while the rest of the toolchain — the
// loopcheck auditor, the conformance conservation harness, the metrics
// collector — keeps watching the honest remainder of the network.
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
// Accounting discipline: a blackholed packet is an accounted drop
// (routing.DropAdversary), never a vanished one, so the conformance
// equation DataInitiated == DataDelivered + DataDropped + InFlight holds
// under every attack; forged and replayed control messages count an
// initiation before transmission, keeping the control ledgers balanced.
//
// Determinism matches internal/fault: the engine draws victims and
// attack randomness from its own splittable stream (conventionally
// root.Split("adversary")) with a sub-stream per compromise and per
// wrapped node, so adding an adversary plan never perturbs mobility,
// traffic, MAC, or fault randomness, and the same seed compromises the
// same nodes at any sweep worker count.
package adversary

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// Behavior selects an attack repertoire for a compromised node.
type Behavior int

// The five attack behaviors.
const (
	// Blackhole forwards control traffic normally (best camouflage, the
	// routing protocol keeps choosing the node) but silently discards
	// every transit data packet.
	Blackhole Behavior = iota + 1
	// Grayhole drops transit data selectively: with probability dropProb
	// per packet, or deterministically for half the flows (PerFlow).
	Grayhole
	// SeqnoInflate answers overheard route requests with forged replies
	// carrying an enormous destination sequence number and a lying hop
	// count, attracting traffic toward the adversary. Protocols without
	// destination sequence numbers (DSR, OLSR) are structurally immune
	// and the behavior is a no-op there.
	SeqnoInflate
	// StaleReplay records route replies, errors, and topology messages,
	// then re-broadcasts them after they have gone stale, re-advertising
	// expired LDR (sn, fd) labels and dead AODV routes.
	StaleReplay
	// Storm floods forged RREQs and RERRs on a timer, the classic
	// control-plane resource-exhaustion attack the per-neighbor rate
	// limiters in internal/core and internal/aodv are built to contain.
	Storm
)

// String names the behavior for reports and profile errors.
func (b Behavior) String() string {
	switch b {
	case Blackhole:
		return "blackhole"
	case Grayhole:
		return "grayhole"
	case SeqnoInflate:
		return "seqno-inflate"
	case StaleReplay:
		return "stale-replay"
	case Storm:
		return "storm"
	default:
		return "behavior(" + strconv.Itoa(int(b)) + ")"
	}
}

// The attack parameters every profile uses.
const (
	dropProb = 0.5 // Grayhole: per-packet drop probability

	// forgedSeq is the absolute sequence number SeqnoInflate and Storm
	// forge into replies and storm requests — enormous but far from uint32
	// wraparound; for LDR it becomes the timestamp half of the packed
	// Seqno, equally dominant. maxHopLie bounds the lying hop counts,
	// drawn uniformly from [0, maxHopLie]: the *same* forged number with
	// *varying* distances is what bends AODV's equal-seqno acceptance into
	// honest-node loops.
	forgedSeq = 1 << 30
	maxHopLie = 4

	replayBurst = 4 // StaleReplay: messages re-broadcast per tick
)

// Compromise turns some nodes Byzantine with one behavior. Victims are
// the explicit Nodes list or Count random picks; At delays activation
// (zero activates at simulation start).
type Compromise struct {
	Behavior Behavior
	Nodes    []int         // explicit victims; empty → Count random picks
	Count    int           // random victims when Nodes is empty
	At       time.Duration // activation time

	// Grayhole: drop a deterministic half of the flows instead of each
	// packet with dropProb. No profile sets it; it stays until the
	// committed AODV loop seed is re-searched, because the salt it needs
	// is drawn first from every wrapper's stream and the seed depends on
	// what follows (TestAODVSeqnoForgeryLoopRegression).
	PerFlow bool

	// StaleReplay.
	ReplayEvery time.Duration // replay cadence
	ReplayAge   time.Duration // minimum recorded age before replay

	// Storm.
	StormEvery time.Duration // burst cadence
	StormBurst int           // forged RREQs per burst, plus one RERR
}

// Plan is a named, declarative compromise schedule, the adversarial
// sibling of fault.Plan — the two compose freely in one scenario.
type Plan struct {
	Name        string
	Compromises []Compromise
}

// Stats counts what the compromised nodes actually did. All counters
// are engine-wide sums over every compromised node.
type Stats struct {
	Compromised int    // distinct nodes turned Byzantine
	DataDropped uint64 // transit data blackholed/grayholed (accounted drops)
	ForgedRREPs uint64 // inflated-seqno replies forged
	Replayed    uint64 // stale recorded messages re-broadcast
	StormRREQs  uint64 // forged route requests flooded; for DSR and OLSR, re-broadcast recorded RREPs and TCs
	StormRERRs  uint64 // forged route errors flooded; for DSR, re-broadcast recorded RERRs
}

// Engine executes a Plan against a network: it wraps the chosen nodes'
// protocols in Byzantine interceptors before the simulation starts.
// Create one per run with NewEngine and call Install before
// routing.Network.Start.
type Engine struct {
	nw    *routing.Network
	plan  Plan
	src   *rng.Source
	until time.Duration

	// Stats accumulates attack activity across all compromised nodes.
	Stats Stats

	wrapped map[routing.NodeID]*wrapped
}

// NewEngine binds a plan to a network. src must be a dedicated stream
// (conventionally root.Split("adversary")); until bounds the attack
// timers so the engine cannot keep a drained event queue alive.
func NewEngine(nw *routing.Network, plan Plan, src *rng.Source, until time.Duration) *Engine {
	return &Engine{
		nw:      nw,
		plan:    plan,
		src:     src,
		until:   until,
		wrapped: make(map[routing.NodeID]*wrapped),
	}
}

// Install resolves every compromise's victims and wraps their protocol
// instances. Each compromise draws victims from its own sub-stream —
// drawn unconditionally, so editing one compromise never shifts the
// victims another picks — and a node named by several compromises gets
// one wrapper carrying all of its behaviors. Must run before the
// network starts (wrapping swaps the node's bound protocol).
func (e *Engine) Install() {
	for i, c := range e.plan.Compromises {
		stream := e.src.Split("compromise" + strconv.Itoa(i))
		for _, id := range e.victims(c, stream) {
			if id < 0 || id >= len(e.nw.Nodes) {
				continue
			}
			e.compromise(routing.NodeID(id), c)
		}
	}
	e.Stats.Compromised = len(e.wrapped)
}

// victims resolves a compromise's targets: the explicit list, or Count
// random distinct nodes (drawn even when unused, for stream stability).
func (e *Engine) victims(c Compromise, stream *rng.Source) []int {
	perm := stream.Perm(len(e.nw.Nodes))
	if len(c.Nodes) > 0 {
		return c.Nodes
	}
	count := c.Count
	if count > len(perm) {
		count = len(perm)
	}
	return perm[:count]
}

func (e *Engine) compromise(id routing.NodeID, c Compromise) {
	w := e.wrapped[id]
	if w == nil {
		node := e.nw.Nodes[id]
		w = newWrapped(e, node, e.src.Split("node"+strconv.Itoa(int(id))))
		e.wrapped[id] = w
		node.SetProtocol(w)
	}
	w.behaviors = append(w.behaviors, c)
}

// Compromised lists the Byzantine nodes in ascending order.
func (e *Engine) Compromised() []routing.NodeID {
	out := make([]routing.NodeID, 0, len(e.wrapped))
	for id := range e.wrapped {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsCompromised reports whether a node is Byzantine.
func (e *Engine) IsCompromised(id routing.NodeID) bool {
	_, ok := e.wrapped[id]
	return ok
}

// String summarizes the plan for logs.
func (p Plan) String() string {
	if len(p.Compromises) == 0 {
		return fmt.Sprintf("adversary plan %q (empty)", p.Name)
	}
	return fmt.Sprintf("adversary plan %q (%d compromises)", p.Name, len(p.Compromises))
}
