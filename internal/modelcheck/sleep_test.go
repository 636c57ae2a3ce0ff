package modelcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// keysOf takes, on a fresh cursor, the key of every state in an arena of
// discovered states.
func keysOf(t *testing.T, sc *Scenario, opts Options, recs *chain[rec]) []stateKey {
	t.Helper()
	cur, err := newCursor(sc)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]stateKey, recs.len())
	var trace []Action
	for i := range keys {
		var spent budgets
		trace, spent = traceOf(trace, recs, int32(i))
		cur.seek(trace)
		keys[i] = cur.key(opts.remaining(spent))
	}
	return keys
}

// reductionCell is one exploration TestReductionKeepsEveryState and
// TestExploreIndependentOfWorkers run.
type reductionCell struct {
	sc   *Scenario
	opts Options
	ref  [3]int // the reference's pinned (states, transitions, depth), if any
}

func (c reductionCell) name() string {
	return fmt.Sprintf("%s/%s/%+v", c.sc.Protocol, c.sc.Graph.Name, c.opts)
}

// reductionCells are the four pinned explorations (the reference keeps
// their pinned triples), every connected 3- and 4-node graph under both
// protocols with a loss and a crash or a duplicate and a volatile crash at
// depth 8, the triangle at depth 12, the AODV line cut short by the state
// cap, K4 with a custom flow, and K2,3. Every LDR cell must come out
// clean but those with a volatile crash, which wipes the labels §5 keeps
// in stable storage and so may break the ordering.
//
// K2,3 (0–{1,2,3}–4, the one flow 0→4) is the only 5-node cell: three
// disjoint two-hop paths, so floods and replies race over each. Without a
// fault the search closes at depth 14 with 778 states; with one crash,
// bounded at depth 16, it finds 10,427.
func reductionCells(t *testing.T) []reductionCell {
	newScenario := func(topo, proto string, flows []Flow) *Scenario {
		g, err := NamedTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		if flows == nil {
			flows = DefaultFlows(g)
		}
		return &Scenario{Graph: g, Protocol: proto, Flows: flows, Seed: 1}
	}
	cells := []reductionCell{
		{newScenario("line3", "ldr", nil), Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}, [3]int{7428, 26251, 12}},
		{newScenario("line3", "ldr", nil), Options{MaxDepth: 12, MaxVResets: 1}, [3]int{2521, 7442, 12}},
		{newScenario("n4-1", "ldr", nil), Options{MaxDepth: 10, MaxResets: 1}, [3]int{14056, 45854, 10}},
		{newScenario("line3", "aodv", nil), Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}, [3]int{2506, 6477, 8}},
	}
	for _, sc := range sweepScenarios(t) {
		cells = append(cells,
			reductionCell{sc: sc, opts: Options{MaxDepth: 8, MaxDrops: 1, MaxResets: 1}},
			reductionCell{sc: sc, opts: Options{MaxDepth: 8, MaxDups: 1, MaxVResets: 1}})
	}
	k23 := &Scenario{
		Graph:    Graph{N: 5, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}}, Name: "k23"},
		Protocol: "ldr", Flows: []Flow{{Src: 0, Dst: 4}}, Seed: 1,
	}
	return append(cells,
		reductionCell{sc: newScenario("n3-1", "ldr", nil), opts: Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}},
		reductionCell{sc: newScenario("line3", "aodv", nil), opts: Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1, MaxStates: 1000}},
		reductionCell{sc: newScenario("n4-5", "ldr", []Flow{{Src: 0, Dst: 1}}), opts: Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1}},
		reductionCell{sc: k23, opts: Options{MaxDepth: 18}, ref: [3]int{778, 2584, 14}},
		reductionCell{sc: k23, opts: Options{MaxDepth: 16, MaxResets: 1}, ref: [3]int{10427, 41194, 16}},
	)
}

// TestReductionKeepsEveryState runs the search with sleep sets against the
// search without them (refExplore) on every reduction cell: the same
// states, each at the same depth, found in the same order through the same
// parent and action, the same truncation, the same violation and witness,
// and no more transitions.
func TestReductionKeepsEveryState(t *testing.T) {
	for _, c := range reductionCells(t) {
		name := c.name()
		opts := c.opts.withDefaults()
		cur, err := newCursor(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		got, recs := explore(cur, opts, runtime.GOMAXPROCS(0), time.Now())
		ref, err := newCursor(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRecs, wantKeys := refExplore(ref, opts, time.Now())

		if c.ref != [3]int{} {
			if r := [3]int{want.States, want.Transitions, want.Depth}; r != c.ref {
				t.Errorf("%s: the reference explores (states, transitions, depth) = %v, pinned %v", name, r, c.ref)
			}
		}
		if got.States != want.States || got.Depth != want.Depth || got.Truncated != want.Truncated {
			t.Errorf("%s: (states, depth, truncated) = (%d, %d, %v), the reference gives (%d, %d, %v)",
				name, got.States, got.Depth, got.Truncated, want.States, want.Depth, want.Truncated)
		}
		if got.Transitions > want.Transitions {
			t.Errorf("%s: %d transitions, more than the reference's %d", name, got.Transitions, want.Transitions)
		}
		switch {
		case (got.Violation == nil) != (want.Violation == nil):
			t.Errorf("%s: violation %v, the reference finds %v", name, got.Violation, want.Violation)
		case got.Violation != nil && !slices.Equal(got.Violation.Trace, want.Violation.Trace):
			t.Errorf("%s: witness %v, the reference's is %v", name, got.Violation.Trace, want.Violation.Trace)
		}
		if c.sc.Protocol == "ldr" && c.opts.MaxVResets == 0 && (got.Violation != nil || got.Truncated) {
			t.Errorf("%s: LDR is not clean: violation %v, truncated %v", name, got.Violation, got.Truncated)
		}

		// Equal arenas are the same traces, so the same keys at the same
		// depths in the same order. Otherwise, whether it is only the order.
		if !slices.Equal(recsOf(recs), recsOf(wantRecs)) {
			t.Errorf("%s: the states are not found in the reference's order, through its parents", name)
			depthOf := func(keys []stateKey, recs chain[rec]) map[stateKey]int32 {
				m := make(map[stateKey]int32, len(keys))
				for i, k := range keys {
					m[k] = recs.at(i).depth
				}
				return m
			}
			gotDepth, wantDepth := depthOf(keysOf(t, c.sc, opts, &recs), recs), depthOf(wantKeys, wantRecs)
			for k, d := range wantDepth {
				if gd, ok := gotDepth[k]; !ok || gd != d {
					t.Errorf("%s: state %x at depth %d in the reference, found %v at depth %d", name, k, d, ok, gd)
					break
				}
			}
			if len(gotDepth) != len(wantDepth) {
				t.Errorf("%s: %d distinct keys, the reference %d", name, len(gotDepth), len(wantDepth))
			}
		}
		t.Logf("%s: %d states, transitions %d -> %d", name, got.States, want.Transitions, got.Transitions)
	}
}

// TestIndependentActionsCommute checks the independence relation and the
// action identity the sleep sets rest on, on random walks over every
// connected 3- and 4-node graph with every fault budget on: for every
// pair of enabled actions the relation calls independent, each one's
// identity is still enabled after the other, and the two orders reach
// equal keys. Two enabled actions with one identity reach one state; two
// of a kind on one link whose items encode alike have one identity.
func TestIndependentActionsCommute(t *testing.T) {
	const walks, steps = 12, 10
	for _, sc := range sweepScenarios(t) {
		g := sc.Graph
		t.Run(sc.Protocol+"/"+g.Name, func(t *testing.T) {
			cur, err := newCursor(sc)
			if err != nil {
				t.Fatal(err)
			}
			// after applies a on top of trace, then the action named b there,
			// and returns the key reached, or false if no action is named b.
			after := func(trace []Action, a Action, b actionID) (stateKey, bool) {
				ta := append(slices.Clone(trace), a)
				cur.seek(ta)
				u := usedBy(ta)
				for _, x := range cur.w.enabled(nil, walkOpts.remaining(u)) {
					if cur.id(x) == b {
						cur.w.apply(x)
						k := cur.key(walkOpts.remaining(u.after(x)))
						cur.back()
						return k, true
					}
				}
				return stateKey{}, false
			}
			rnd := rand.New(rand.NewSource(int64(len(g.Edges))*31 + int64(g.N)))
			pairs := 0
			for walk := 0; walk < walks; walk++ {
				var trace []Action
				for step := 0; step < steps; step++ {
					cur.seek(trace)
					rem := walkOpts.remaining(usedBy(trace))
					acts := cur.w.enabled(nil, rem)
					if len(acts) == 0 {
						break
					}
					ids := make([]actionID, len(acts))
					items := make([][]byte, len(acts))
					for i, a := range acts {
						ids[i] = cur.id(a)
						if a.Kind == ActDeliver || a.Kind == ActDrop || a.Kind == ActDup {
							items[i] = new(encoder).encodeItem(nil, cur.w.pending[int(a.From)*g.N+int(a.To)][a.Index])
						}
					}
					for i, a := range acts {
						for j := i + 1; j < len(acts); j++ {
							b := acts[j]
							sameItem := a.Kind == b.Kind && a.From == b.From && a.To == b.To && items[i] != nil && bytes.Equal(items[i], items[j])
							if sameItem && ids[i] != ids[j] {
								t.Fatalf("after %v: %v and %v encode one item alike and are named %x and %x", trace, a, b, ids[i], ids[j])
							}
							if ids[i] == ids[j] { // one kind, so one budget spent
								ra := walkOpts.remaining(usedBy(trace).after(a))
								cur.seek(trace)
								cur.w.apply(a)
								ka := cur.key(ra)
								cur.back()
								cur.w.apply(b)
								kb := cur.key(ra)
								cur.back()
								if ka != kb {
									t.Fatalf("after %v: %v and %v are both named %x and reach different states", trace, a, b, ids[i])
								}
								continue
							}
							if !independent(ids[i], ids[j]) {
								continue
							}
							pairs++
							kab, ok := after(trace, a, ids[j])
							if !ok {
								t.Fatalf("after %v: %v is independent of %v and not enabled after it", trace, b, a)
							}
							kba, ok := after(trace, b, ids[i])
							if !ok {
								t.Fatalf("after %v: %v is independent of %v and not enabled after it", trace, a, b)
							}
							if kab != kba {
								t.Fatalf("after %v: %v and %v are independent and do not commute", trace, a, b)
							}
						}
					}
					trace = append(trace, acts[rnd.Intn(len(acts))])
				}
			}
			if pairs == 0 {
				t.Fatal("no independent pair was met")
			}
		})
	}
}
