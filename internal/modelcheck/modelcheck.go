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
// The search is breadth-first, and expands each wide layer on every CPU: a
// worker keeps one live network, and a transition is one action applied
// to it and one in-place restore, from the parent's saved state, of the
// one node and the few links the action wrote (snapshot.go). A worker's
// saved states form a stack along its current path in the search tree, so
// memory beyond the visited-key set is O(workers × depth), not O(states).
// Workers run protocol code at once unless a registered factory may share
// state across its instances (env.go). What they find is merged in
// discovery order by the caller, so the result does not depend on how
// many there are (explore). Sleep sets (sleep.go) leave out the
// transitions that can only lead back to a state already found; the
// states found are the same. The arena of discovered states and the sleep
// layers are chains (chain.go), which never move what they hold.
package modelcheck

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
)

// Scenario fixes the model's environment: a topology, a protocol, and an
// ordered list of data flows the checker may originate (each at most
// once, in order, at any point in the schedule).
type Scenario struct {
	Graph    Graph
	Protocol string // "ldr" or "aodv" (any scenario.Factory name with ModelStater support)
	Flows    []Flow
	Seed     int64 // per-node RNG seed; only jitter draws consume it
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
	// states (default 5000) and once at the end, however the search ends:
	// the last report carries the Result's counts. It is called from
	// Check's goroutine while no worker runs, so whatever it times runs
	// alone. ProgressEvery also bounds how many states a round of parallel
	// expansion takes on, and with it the round's buffers.
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
	Scenario     *Scenario
	States       int          // distinct reachable states (initial state included)
	Transitions  int          // transitions executed (successor constructions)
	Depth        int          // deepest layer reached
	Truncated    bool         // hit MaxStates before exhausting the bounded space
	Completeness Completeness // whether the state cap or the depth bound cut the search
	Violation    *Witness
	Elapsed      time.Duration
}

// Completeness is how far a search went before it ended.
type Completeness uint8

const (
	// Stopped: the search ended at a violation.
	Stopped Completeness = iota
	// Bounded: a state at MaxDepth was left unexpanded, so longer
	// schedules may reach states the search did not.
	Bounded
	// Exhausted: the frontier emptied before the depth bound, so every
	// state reachable within the budgets was expanded.
	Exhausted
	// Capped: the state cap refused a state (the search is Truncated) and
	// no violation was found, so states within the budgets and the depth
	// bound may be missing.
	Capped
)

func (c Completeness) String() string {
	return [...]string{Stopped: "stopped", Bounded: "bounded", Exhausted: "exhausted", Capped: "capped"}[c]
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
// walking parents. Worlds are not stored per state: a worker's cursor
// takes its world to a state's trace when it expands the state. The arena
// is a chain of recs in discovery order, which is the breadth-first queue.
type rec struct {
	parent int32
	depth  int32
	action packedAction
}

// packedAction is an Action in 8 bytes, for the arena: node identifiers
// are below maxNodes, and v, the queue position or (by the kind's shape)
// the flow index, is far below 2^31.
type packedAction struct {
	kind           ActionKind
	from, to, node uint8
	v              int32
}

func pack(a Action) packedAction {
	return packedAction{a.Kind, uint8(a.From), uint8(a.To), uint8(a.Node), int32(a.Index + a.Flow)}
}

func (p packedAction) unpack() Action {
	a := Action{Kind: p.kind, From: routing.NodeID(p.from), To: routing.NodeID(p.to), Node: routing.NodeID(p.node), Index: int(p.v)}
	if kinds[p.kind].shape == onFlow {
		a.Index, a.Flow = 0, int(p.v)
	}
	return a
}

// traceOf reconstructs the action trace leading to state idx into
// trace's storage, counting the actions of each kind on the way. (The
// counts are not kept in rec: a word a state per budgeted kind, for a loop
// of at most depth steps per expansion.)
func traceOf(trace []Action, recs *chain[rec], idx int32) ([]Action, budgets) {
	r := recs.at(int(idx))
	n := int(r.depth)
	trace = slices.Grow(trace[:0], n)[:n]
	var u budgets
	for ; r.parent >= 0; r = recs.at(int(r.parent)) {
		n--
		trace[n] = r.action.unpack()
		u = u.after(trace[n])
	}
	return trace, u
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
	res, _ := explore(cur, opts, runtime.GOMAXPROCS(0), start)
	return res, nil
}

// A breadth-first layer is expanded in rounds: up to roundChunks chunks
// of chunkParents consecutive parents a worker, ending early where the
// layer ends or a progress report is due. Seeking from one chunk to the
// next costs a few applies, little against 32 expansions, and the round's
// last chunk keeps the other workers waiting for at most 32. A layer too
// small to fill splitRounds such rounds is expanded by the caller alone, as
// one worker expands every layer: it has nobody to wait for, and merges
// each chunk as it is expanded. Splitting a layer costs another world for
// each worker, wider round buffers and a seek between every two chunks; on
// the 3-node line, whose widest layers hold 1,486 parents (LDR) and 894
// (AODV), splitting at one round's worth at two workers cost 9 % and 24 %
// more bytes allocated, and at two rounds' worth 7 % and none. At four,
// neither splits; the 3-node triangle at depth 14 still splits the layers
// that hold 97 % of its parents.
const (
	chunkParents = 32
	roundChunks  = 8
	splitRounds  = 4
)

// splits reports whether a layer of parents is expanded on workers
// goroutines, or on the caller's alone.
func splits(parents, workers int) bool {
	return workers > 1 && parents >= splitRounds*workers*roundChunks*chunkParents
}

// explore is Check's search, over the world cur holds in its initial
// state, with sleep-set reduction (sleep.go): it finds the states the
// search without it finds (reference_test.go), in the same order, over
// fewer transitions. It also returns the arena of discovered states.
//
// It expands each round on up to workers goroutines, the caller's (on
// cur) among them, and the caller then merges the round in discovery
// order (merge). A worker reads what the merge wrote before the round
// began and writes only its own chunks and buffers, so the arena, the
// counts, the witness and every Progress report are the same at any worker
// count.
// A round of one chunk — every round, for one worker — is expanded on the
// caller's goroutine into storage that never leaves it, so the search's
// own state stays on the caller's stack and a small exploration starts no
// goroutine.
func explore(cur *cursor, opts Options, workers int, start time.Time) (*Result, chain[rec]) {
	s := search{
		opts:     opts,
		start:    start,
		res:      &Result{Scenario: cur.w.sc},
		handlers: cur.w.handlers,
		workers:  make([]worker, workers),
	}
	lead := &s.workers[0]
	*lead = worker{cur: cur, checker: loopcheck.NewChecker()}
	res := s.res
	if v := lead.checker.CheckTables(cur.tables()); len(v) > 0 {
		res.States = 1
		res.Violation = newWitness(res.Scenario, nil, v, cur.w)
		s.finish(Stopped)
		return res, s.recs
	}

	s.recs.push(rec{parent: -1})
	s.visited.add(cur.key(opts.remaining(budgets{})))
	res.States = 1

	// The layer being expanded and the one being discovered; the initial
	// state's sleep set is empty.
	s.next.first = 1
	for lo := int32(0); int(lo) < s.recs.len(); {
		hi := int32(s.recs.len())
		res.Depth = int(s.recs.at(int(lo)).depth)
		if res.Depth >= opts.MaxDepth {
			s.finish(Bounded)
			return res, s.recs
		}
		roundMax := chunkParents
		if splits(int(hi-lo), workers) {
			roundMax *= workers * roundChunks
		}
		for resume := -1; lo < hi; {
			due := (int(lo)/opts.ProgressEvery + 1) * opts.ProgressEvery
			end := int32(min(int(hi), due, int(lo)+roundMax))
			var done bool
			if lo, resume, done = s.merge(s.expand(lo, end, resume)); done {
				s.finish(Stopped)
				return res, s.recs
			}
		}
		s.this, s.next = s.next, s.this
		s.next.reset(int32(s.recs.len()))
	}
	s.finish(Exhausted)
	return res, s.recs
}

// search is one exploration, as the merging goroutine keeps it. The
// workers of a round see it only through the round, so it never leaves
// that goroutine's stack, and a small exploration allocates little more
// than the search did before it had workers.
type search struct {
	opts  Options
	start time.Time
	res   *Result

	recs       chain[rec]
	visited    keySet
	this, next sleepLayer // the sleep sets of the layer being expanded and of the one being discovered

	handlers sync.Locker // every world's protocol code runs under it (env.go)
	workers  []worker    // [0] starts on the caller's cursor; the others are built on first use
	solo     [1]chunk    // a round of one chunk, which never leaves this goroutine
	chunks   []chunk     // a round of more, with its storage kept from round to round
}

// worker is what one goroutine expands parents with, and where it writes
// what it finds in a round, chunk after chunk.
type worker struct {
	cur     *cursor
	checker *loopcheck.Checker
	trace   []Action
	acts    []Action

	ids   []actionID // each parent's explored actions, in the order explored
	cands []cand     // the successors the visited set did not hold when the round began
}

// round is what the workers of one round share: what they read, as the
// merge left it, and the chunks they fill.
type round struct {
	opts      Options
	recs      chain[rec]
	visited   *keySet
	sleep     sleepLayer // the sleep sets of the layer being expanded
	truncated bool       // the state cap has refused a state, so nothing sleeps

	// Parent lo's actions at positions up to resume were merged before the
	// state cap refused a state (-1: none were).
	lo     int32
	resume int

	workers []worker
	chunks  []chunk
	claimed atomic.Int32 // chunks handed out
	wg      sync.WaitGroup
}

// chunk is worker w's expansion of the parents from lo to hi, parent by
// parent, in its ids and cands from the offsets in from on: ends[k] closes
// parent lo+k's stretch, for the first done parents.
type chunk struct {
	lo, hi int32
	w      int
	from   expansion
	ends   [chunkParents]expansion
	done   int

	violation *Witness // found expanding parent lo+done-1
	panicked  any      // recovered from expanding parent lo+done
}

// expansion is where one parent's stretch of a worker's ids and cands
// ends, and how many transitions it made.
type expansion struct {
	ids, cands, transitions int32
}

// cand is a successor found by expanding a parent: the action, the key of
// the state it leads to, the action's position among the parent's enabled
// actions and its index among the parent's explored ones.
type cand struct {
	action   packedAction
	key      stateKey
	pos, nth int32
}

// expand has the workers expand the parents from lo to hi, all of one
// layer, and returns the round's chunks. A worker that finds a violation
// or panics stops its chunk there; the merge reads no chunk past it.
func (s *search) expand(lo, hi int32, resume int) []chunk {
	n := int((hi - lo + chunkParents - 1) / chunkParents)
	used := min(len(s.workers), n)
	// A worker's world is built for the first round with a chunk for it.
	for w := range s.workers[:used] {
		if s.workers[w].cur == nil {
			cur, err := openCursor(s.res.Scenario, s.handlers)
			if err != nil {
				panic(err) // the scenario built once already
			}
			s.workers[w] = worker{cur: cur, checker: loopcheck.NewChecker()}
		}
	}
	if n == 1 {
		alone := round{chunks: s.solo[:]}
		s.begin(&alone, lo, hi, resume)
		alone.work(0)
		return alone.chunks
	}
	for len(s.chunks) < n {
		s.chunks = append(s.chunks, chunk{})
	}
	shared := &round{chunks: s.chunks[:n]}
	s.begin(shared, lo, hi, resume)
	for w := 1; w < used; w++ {
		shared.wg.Add(1)
		go func() {
			defer shared.wg.Done()
			shared.work(w)
		}()
	}
	shared.work(0)
	shared.wg.Wait()
	return shared.chunks
}

// begin sets r up to expand the parents from lo to hi into its chunks.
func (s *search) begin(r *round, lo, hi int32, resume int) {
	r.opts = s.opts
	r.recs, r.visited, r.sleep, r.truncated = s.recs, &s.visited, s.this, s.res.Truncated
	r.lo, r.resume, r.workers = lo, resume, s.workers
	for w := range s.workers {
		wk := &s.workers[w]
		wk.ids, wk.cands = wk.ids[:0], wk.cands[:0]
	}
	for i := range r.chunks {
		c := lo + int32(i)*chunkParents
		r.chunks[i].reset(c, min(hi, c+chunkParents))
	}
}

// reset empties c for the parents from lo to hi.
func (c *chunk) reset(lo, hi int32) {
	c.lo, c.hi, c.done = lo, hi, 0
	c.violation, c.panicked = nil, nil
}

// work has worker w claim the round's chunks in order and expand them.
func (r *round) work(w int) {
	for i := int(r.claimed.Add(1)) - 1; i < len(r.chunks); i = int(r.claimed.Add(1)) - 1 {
		r.expandChunk(w, &r.chunks[i])
	}
}

// expandChunk has worker w expand chunk c, up to the parent at which it
// finds a violation or panics. A panic is kept in c, for the merge to raise
// where the one-worker search raises it, and retires the worker's world:
// the worker expands nothing more this round, and the merge reads none of
// its later chunks.
func (r *round) expandChunk(w int, c *chunk) {
	wk := &r.workers[w]
	c.w, c.from = w, expansion{ids: int32(len(wk.ids)), cands: int32(len(wk.cands))}
	if wk.cur == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			c.panicked = p
			wk.cur = nil
		}
	}()
	for idx := c.lo; idx < c.hi; idx++ {
		resume := -1
		if idx == r.lo {
			resume = r.resume
		}
		if wk.expand(r, c, idx, resume) {
			return
		}
	}
}

// expand appends parent idx's expansion to c, and reports whether it found
// a violation, with which c's expansion of the parent ends. The actions at
// positions up to resume are only named, to rebuild the list of explored
// ones: they were merged before the state cap refused a state.
func (wk *worker) expand(r *round, c *chunk, idx int32, resume int) bool {
	cur := wk.cur
	var spent budgets
	wk.trace, spent = traceOf(wk.trace, &r.recs, idx)
	cur.seek(wk.trace)
	sleep := r.sleep.of(idx)
	wk.acts = cur.w.enabled(wk.acts[:0], r.opts.remaining(spent))
	first := len(wk.ids)
	wk.ids, wk.cands = slices.Grow(wk.ids, len(wk.acts)), slices.Grow(wk.cands, len(wk.acts))
	var transitions int32
	for pos, a := range wk.acts {
		// An action named like one explored here leads where that one led,
		// and one asleep to a state already visited — as long as the state
		// cap has refused none. Once it has, nothing sleeps, and the rest of
		// the search is the unreduced one.
		id := cur.id(a)
		if slices.Contains(wk.ids[first:], id) || (pos <= resume || !r.truncated) && slices.Contains(sleep, id) {
			continue
		}
		if pos <= resume {
			wk.ids = append(wk.ids, id)
			continue
		}
		cur.w.apply(a)
		transitions++
		if v := wk.checker.CheckTables(cur.tables()); len(v) > 0 {
			c.violation = newWitness(cur.w.sc, append(slices.Clone(wk.trace), a), v, cur.w)
			c.close(wk, transitions)
			return true
		}
		k := cur.key(r.opts.remaining(spent.after(a)))
		cur.back()
		if !r.visited.has(k) {
			wk.cands = append(wk.cands, cand{action: pack(a), key: k, pos: int32(pos), nth: int32(len(wk.ids) - first)})
		}
		wk.ids = append(wk.ids, id)
	}
	c.close(wk, transitions)
	return false
}

// close ends the chunk's stretch for the parent wk has been expanding.
func (c *chunk) close(wk *worker, transitions int32) {
	c.ends[c.done] = expansion{int32(len(wk.ids)), int32(len(wk.cands)), transitions}
	c.done++
}

// merge takes a round's chunks into the search in discovery order, doing
// after each parent what the one-worker search does: insert into the
// visited set, append to the arena, build each child's sleep set, apply
// the state cap, stop at the first violation, raise the first panic and
// report progress. It returns where the layer's expansion goes on, and
// whether the search is over.
//
// The first state the cap refuses ends the round: the round's workers let
// actions sleep, and from the refused one on nothing may. So the round's
// transitions are counted up to it, and the refusing parent is expanded
// again from the position after it.
func (s *search) merge(chunks []chunk) (lo int32, resume int, done bool) {
	res, opts := s.res, s.opts
	slept := !res.Truncated
	for ci := range chunks {
		c := &chunks[ci]
		wk, from := &s.workers[c.w], c.from
		for k, e := range c.ends[:c.done] {
			idx := c.lo + int32(k)
			depth := s.recs.at(int(idx)).depth
			sleep, explored := s.this.of(idx), wk.ids[from.ids:e.ids]
			for _, cd := range wk.cands[from.cands:e.cands] {
				if s.visited.has(cd.key) {
					continue
				}
				if res.States >= opts.MaxStates {
					res.Truncated = true
					if slept {
						res.Transitions += int(cd.nth) + 1
						return idx, int(cd.pos), false
					}
					continue
				}
				s.visited.add(cd.key)
				s.recs.push(rec{parent: idx, depth: depth + 1, action: cd.action})
				if int(depth)+1 < opts.MaxDepth {
					s.next.add(sleep, explored[:cd.nth], explored[cd.nth])
				}
				res.States++
			}
			res.Transitions += int(e.transitions)
			from = e
			if c.violation != nil && k == c.done-1 {
				res.Violation = c.violation
				return 0, 0, true
			}
			if opts.Progress != nil && (int(idx)+1)%opts.ProgressEvery == 0 {
				opts.Progress(Progress{
					States:      res.States,
					Frontier:    s.recs.len() - int(idx) - 1,
					Transitions: res.Transitions,
					Depth:       int(depth),
					Elapsed:     time.Since(s.start),
				})
			}
		}
		if c.panicked != nil {
			panic(c.panicked)
		}
	}
	return chunks[len(chunks)-1].hi, -1, false
}

// finish stamps the result's completeness (c, or Capped if the state cap
// refused a state and c is not Stopped) and its elapsed time, and makes
// the final report.
func (s *search) finish(c Completeness) {
	res := s.res
	if res.Truncated && c != Stopped {
		c = Capped
	}
	res.Completeness = c
	res.Elapsed = time.Since(s.start)
	if s.opts.Progress != nil {
		s.opts.Progress(Progress{
			States:      res.States,
			Transitions: res.Transitions,
			Depth:       res.Depth,
			Elapsed:     res.Elapsed,
		})
	}
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
					from: routing.NodeID(from), to: routing.NodeID(to), root: int(m.root),
				})
			}
		}
	}
	return wit
}
