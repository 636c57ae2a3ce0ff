// Package modelcheck is an explicit-state bounded model checker for the
// repository's routing protocols. It drives real protocol instances (the
// same code the simulator runs) through every message interleaving, loss,
// duplication, and crash schedule reachable on a small topology within
// configurable budgets, and checks LDR's loop-freedom and (sn, fd)
// ordering invariants — through the same loopcheck predicate the runtime
// auditor uses — at every reachable state. A violation comes back as a
// minimal action trace plus a conformance-replay seed that reproduces it
// under the full MAC/radio simulator.
//
// The abstraction is protocol-level: no MAC contention, no radio timing,
// no clock. Messages sit in per-link multisets until a deliver action
// consumes them; broadcast jitter runs as an immediate microtask;
// discovery timeouts and cache expiry never fire (the model's clock is
// frozen at zero). See DESIGN.md for the soundness argument and its
// caveats.
//
// The search keeps one live network per exploration. A transition is one
// action applied to it and one in-place restore, from the parent's saved
// state, of the one node and the few links the action wrote (snapshot.go);
// the saved states form a stack along the current path of the search
// tree, so memory beyond the visited-key set is O(depth), not O(states).
// Sleep sets (sleep.go) leave out the transitions that can only lead back
// to a state already found; the states found are the same.
package modelcheck

import (
	"fmt"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
)

// Scenario fixes the model's environment: a topology, a protocol, and an
// ordered list of data flows the checker may originate (each at most
// once, in order, at any point in the schedule).
type Scenario struct {
	Graph     Graph
	Protocol  string // "ldr" or "aodv" (any scenario.Factory name with ModelStater support)
	LDRConfig *core.Config
	Flows     []Flow
	Seed      int64 // per-node RNG seed; only jitter draws consume it
}

// DefaultFlows is the standard sweep workload: every node except the
// last originates one packet toward the last node. On the 3-node line
// this is exactly the van Glabbeek et al. construction's traffic
// pattern.
func DefaultFlows(g Graph) []Flow {
	flows := make([]Flow, 0, g.N-1)
	for i := 0; i < g.N-1; i++ {
		flows = append(flows, Flow{Src: routing.NodeID(i), Dst: routing.NodeID(g.N - 1)})
	}
	return flows
}

// Options bound the exploration.
type Options struct {
	MaxDepth   int // actions per schedule (0 → 12)
	MaxDrops   int // message-loss budget per schedule
	MaxDups    int // duplication budget per schedule
	MaxResets  int // crash-reboot budget (protocol's own persistence rules)
	MaxVResets int // volatile crash budget (stable storage wiped too)
	MaxStates  int // distinct-state cap (0 → 2_000_000); exceeding it truncates

	// Progress, when non-nil, is called every ProgressEvery expanded
	// states (default 5000) and once at the end.
	Progress      func(Progress)
	ProgressEvery int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 12
	}
	if o.MaxStates == 0 {
		o.MaxStates = 2_000_000
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 5000
	}
	return o
}

// Progress is a periodic snapshot of a running exploration.
type Progress struct {
	States      int // distinct states found so far
	Frontier    int // states awaiting expansion
	Transitions int // transitions executed
	Depth       int // depth of the state being expanded
	Elapsed     time.Duration
}

// Result summarizes one exploration.
type Result struct {
	Scenario    *Scenario
	States      int  // distinct reachable states (initial state included)
	Transitions int  // transitions executed (successor constructions)
	Depth       int  // deepest layer reached
	Truncated   bool // hit MaxStates before exhausting the bounded space
	Violation   *Witness
	Elapsed     time.Duration
}

// Witness is a violating schedule: the minimal-length action trace from
// the initial state to a state breaching an invariant, plus everything
// the replay layer needs to re-enact it under the full simulator.
type Witness struct {
	Scenario   *Scenario
	Trace      []Action
	Violations []loopcheck.Violation

	// Captured from the violating world for Spec building.
	delivered []emission // every delivered crossing, with causal roots
	drops     []emission // explicitly dropped crossings
	inflight  []emission // undelivered items still pending at the violation
}

// String renders the witness trace.
func (w *Witness) String() string {
	s := fmt.Sprintf("%s %s: %d-step violation:", w.Scenario.Protocol, w.Scenario.Graph, len(w.Trace))
	for i, a := range w.Trace {
		s += fmt.Sprintf("\n  %2d. %s", i, a)
	}
	for _, v := range w.Violations {
		s += "\n  => " + v.Error()
	}
	return s
}

// rec is one discovered state, stored as a back-pointer into the state
// arena plus the action that produced it; traces are reconstructed by
// walking parents. Worlds are not stored per state: the cursor takes its
// one world to a state's trace when the state is expanded. The arena is
// in discovery order, which is the breadth-first queue.
type rec struct {
	parent int32
	depth  int32
	action packedAction
}

// packedAction is an Action in 12 bytes, for the arena: node identifiers
// are below maxNodes, and a queue position or a flow index is far below
// 2^31.
type packedAction struct {
	kind           ActionKind
	from, to, node uint8
	index, flow    int32
}

func pack(a Action) packedAction {
	return packedAction{kind: a.Kind, from: uint8(a.From), to: uint8(a.To), node: uint8(a.Node), index: int32(a.Index), flow: int32(a.Flow)}
}

func (p packedAction) unpack() Action {
	return Action{Kind: p.kind, From: routing.NodeID(p.from), To: routing.NodeID(p.to), Node: routing.NodeID(p.node), Index: int(p.index), Flow: int(p.flow)}
}

// used counts budget consumption along a trace.
type used struct {
	drops, dups, resets, vresets int
}

// after is u with action a's consumption added.
func (u used) after(a Action) used {
	switch a.Kind {
	case ActDrop:
		u.drops++
	case ActDup:
		u.dups++
	case ActReset:
		u.resets++
	case ActResetVolatile:
		u.vresets++
	}
	return u
}

func (o Options) remaining(u used) budgets {
	return budgets{
		drops:   o.MaxDrops - u.drops,
		dups:    o.MaxDups - u.dups,
		resets:  o.MaxResets - u.resets,
		vresets: o.MaxVResets - u.vresets,
	}
}

// traceOf reconstructs the action trace leading to state idx into
// trace's storage, counting the budgets it uses on the way. (The counts
// are not kept in rec: sixteen more bytes a state, for a loop of at most
// depth steps per expansion.)
func traceOf(trace []Action, recs []rec, idx int32) ([]Action, used) {
	n := int(recs[idx].depth)
	trace = slices.Grow(trace[:0], n)[:n]
	var u used
	for i := idx; recs[i].parent >= 0; i = recs[i].parent {
		n--
		trace[n] = recs[i].action.unpack()
		u = u.after(trace[n])
	}
	return trace, u
}

// Supports reports whether the named protocol implements the state
// hooks (routing.ModelStater) the checker requires. DSR and OLSR do
// not; sweeps skip them.
func Supports(protocol string) bool {
	g := Graph{N: 2, Edges: [][2]int{{0, 1}}, Name: "pair"}
	sc := &Scenario{Graph: g, Protocol: protocol, Seed: 1, Flows: []Flow{{Src: 0, Dst: 1}}}
	_, err := newWorld(sc)
	return err == nil
}

// Check explores the scenario's bounded state space breadth-first and
// returns the first invariant violation found (at minimal action depth)
// or the exhaustive count of clean reachable states. sc is not written:
// when it names no flows, the result's Scenario is a copy that carries
// DefaultFlows.
func Check(sc *Scenario, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	if sc.Flows == nil {
		withFlows := *sc
		withFlows.Flows = DefaultFlows(sc.Graph)
		sc = &withFlows
	}
	if sc.Graph.N < 2 || sc.Graph.N > maxNodes {
		return nil, fmt.Errorf("modelcheck: graph size %d out of range [2, %d]", sc.Graph.N, maxNodes)
	}
	for _, f := range sc.Flows {
		if int(f.Src) < 0 || int(f.Src) >= sc.Graph.N || int(f.Dst) < 0 || int(f.Dst) >= sc.Graph.N || f.Src == f.Dst {
			return nil, fmt.Errorf("modelcheck: flow %d->%d invalid for %d nodes", f.Src, f.Dst, sc.Graph.N)
		}
	}

	cur, err := newCursor(sc)
	if err != nil {
		return nil, err
	}
	res, _ := explore(cur, opts, start)
	return res, nil
}

// explore is Check's search, over the world cur holds in its initial
// state, with sleep-set reduction (sleep.go): it finds the states the
// search without it finds (reference_test.go), in the same order, over
// fewer transitions. It also returns the arena of discovered states.
func explore(cur *cursor, opts Options, start time.Time) (*Result, []rec) {
	w := cur.w
	sc := w.sc
	checker := loopcheck.NewChecker()

	res := &Result{Scenario: sc}
	if v := checker.CheckTables(cur.tables()); len(v) > 0 {
		res.States, res.Elapsed = 1, time.Since(start)
		res.Violation = newWitness(sc, nil, v, w)
		return res, nil
	}

	recs := []rec{{parent: -1}}
	visited := map[stateKey]struct{}{cur.key(opts.remaining(used{})): {}}
	res.States = 1

	// The layer being expanded and the one being discovered; the initial
	// state's sleep set is empty.
	var layers [2]sleepLayer
	this, next := &layers[0], &layers[1]
	next.first = 1
	var trace, acts []Action
	var explored []actionID
	for idx := int32(0); int(idx) < len(recs); idx++ {
		if idx == next.first {
			this, next = next, this
			next.reset(int32(len(recs)))
		}
		depth := int(recs[idx].depth)
		if depth > res.Depth {
			res.Depth = depth
		}
		if depth >= opts.MaxDepth {
			continue
		}
		var spent used
		trace, spent = traceOf(trace, recs, idx)
		cur.seek(trace)
		sleep := this.of(idx)
		acts = w.enabled(acts[:0], opts.remaining(spent))
		explored = slices.Grow(explored[:0], len(acts))
		for _, a := range acts {
			// An action named like one explored here leads where that one
			// led, and one asleep to a state already visited — as long as
			// the state cap has refused none. Once it has, nothing sleeps,
			// and the rest of the search is the unreduced one.
			id := cur.id(a)
			if slices.Contains(explored, id) || !res.Truncated && slices.Contains(sleep, id) {
				continue
			}
			w.apply(a)
			res.Transitions++
			if v := checker.CheckTables(cur.tables()); len(v) > 0 {
				res.Elapsed = time.Since(start)
				res.Violation = newWitness(sc, append(slices.Clone(trace), a), v, w)
				return res, recs
			}
			k := cur.key(opts.remaining(spent.after(a)))
			cur.back()
			explored = append(explored, id)
			if _, ok := visited[k]; ok {
				continue
			}
			if res.States >= opts.MaxStates {
				res.Truncated = true
				continue
			}
			visited[k] = struct{}{}
			recs = append(recs, rec{parent: idx, depth: int32(depth + 1), action: pack(a)})
			if depth+1 < opts.MaxDepth {
				next.add(sleep, explored[:len(explored)-1], id)
			}
			res.States++
		}
		if opts.Progress != nil && (int(idx)+1)%opts.ProgressEvery == 0 {
			opts.Progress(Progress{
				States:      res.States,
				Frontier:    len(recs) - int(idx) - 1,
				Transitions: res.Transitions,
				Depth:       depth,
				Elapsed:     time.Since(start),
			})
		}
	}
	res.Elapsed = time.Since(start)
	if opts.Progress != nil {
		opts.Progress(Progress{
			States:      res.States,
			Frontier:    0,
			Transitions: res.Transitions,
			Depth:       res.Depth,
			Elapsed:     res.Elapsed,
		})
	}
	return res, recs
}

// newWitness captures everything Spec building needs from the violating
// world, so the Witness stays useful after the world is garbage.
func newWitness(sc *Scenario, trace []Action, v []loopcheck.Violation, w *world) *Witness {
	wit := &Witness{
		Scenario:   sc,
		Trace:      trace,
		Violations: v,
		delivered:  append([]emission(nil), w.delLog...),
		drops:      append([]emission(nil), w.dropLog...),
	}
	n := sc.Graph.N
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			for _, m := range w.pending[from*n+to] {
				wit.inflight = append(wit.inflight, emission{
					from: routing.NodeID(from), to: routing.NodeID(to), root: m.root,
				})
			}
		}
	}
	return wit
}
