package modelcheck

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// exploration is everything a search gives out: the result, the arena, the
// witness's replay seed and the progress reports, elapsed times zeroed.
type exploration struct {
	res     *Result
	recs    []rec
	spec    string
	reports []Progress
}

// exploreWith runs explore on sc at the given worker count, reporting
// progress every 500 states, so that rounds end at progress points.
func exploreWith(t *testing.T, sc *Scenario, opts Options, workers int) exploration {
	t.Helper()
	var e exploration
	opts.ProgressEvery = 500
	opts.Progress = func(p Progress) {
		p.Elapsed = 0
		e.reports = append(e.reports, p)
	}
	cur, err := newCursor(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.res, e.recs = explore(cur, opts.withDefaults(), workers, time.Now())
	if v := e.res.Violation; v != nil {
		spec, err := v.Spec("")
		if err != nil {
			e.spec = "error: " + err.Error()
		} else {
			raw, _ := json.Marshal(spec)
			e.spec = string(raw)
		}
	}
	return e
}

// TestExploreIndependentOfWorkers runs the search at one, two and three
// workers, whatever the machine's CPU count: the arena, the result, the
// witness with its replay seed and every progress report but its elapsed
// time must be the same at each. The cells are the reduction cells and two
// explorations cut short by the state cap at points spread over their
// layers. Their transitions are pinned, as the search before workers
// counted them: after a refusal nothing sleeps, for the rest of the
// refusing parent and every later expansion, so the merge must have the
// refusing round expanded again without the sleep sets its workers used.
func TestExploreIndependentOfWorkers(t *testing.T) {
	type cell struct {
		reductionCell
		want [3]int // pinned (states, transitions, depth), if any
	}
	var cells []cell
	for _, c := range reductionCells(t) {
		cells = append(cells, cell{reductionCell: c})
	}
	line3, _ := NamedTopology("line3")
	k4, _ := NamedTopology("n4-5")
	cut := func(sc *Scenario, opts Options, maxStates int, want [3]int) {
		opts.MaxStates = maxStates
		cells = append(cells, cell{reductionCell{sc: sc, opts: opts}, want})
	}
	aodv := &Scenario{Graph: line3, Protocol: "aodv", Flows: DefaultFlows(line3), Seed: 1}
	budget := Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}
	cut(aodv, budget, 1, [3]int{1, 4, 0})
	cut(aodv, budget, 10, [3]int{10, 42, 3})
	cut(aodv, budget, 500, [3]int{500, 1985, 6})
	cut(aodv, budget, 1000, [3]int{1000, 3673, 7})
	cut(aodv, budget, 1500, [3]int{1500, 4784, 8})
	cut(aodv, budget, 2400, [3]int{2400, 3573, 8})
	cut(aodv, budget, 2505, [3]int{2505, 3370, 8})
	ldr := &Scenario{Graph: k4, Protocol: "ldr", Flows: []Flow{{Src: 0, Dst: 1}}, Seed: 1}
	budget = Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1}
	cut(ldr, budget, 100, [3]int{100, 773, 4})
	cut(ldr, budget, 1000, [3]int{1000, 6341, 6})
	cut(ldr, budget, 6000, [3]int{6000, 26326, 8})
	cut(ldr, budget, 9000, [3]int{9000, 29145, 9})
	cut(ldr, budget, 12703, [3]int{12703, 16935, 9})

	// How many cells, whole or cut short, have a layer split across workers,
	// by worker count.
	splitWhole, splitCut := map[int]int{}, map[int]int{}
	for _, c := range cells {
		name := c.name()
		one := exploreWith(t, c.sc, c.opts, 1)
		if r := one.res; c.want != [3]int{} && [3]int{r.States, r.Transitions, r.Depth} != c.want {
			t.Errorf("%s: (states, transitions, depth) = (%d, %d, %d), pinned %v", name, r.States, r.Transitions, r.Depth, c.want)
		}
		layers := make([]int, c.opts.withDefaults().MaxDepth)
		for _, r := range one.recs {
			if int(r.depth) < len(layers) {
				layers[r.depth]++
			}
		}
		for _, workers := range []int{2, 3} {
			switch {
			case !splits(slices.Max(layers), workers):
			case one.res.Truncated:
				splitCut[workers]++
			default:
				splitWhole[workers]++
			}
			got := exploreWith(t, c.sc, c.opts, workers)
			g, w := got.res, one.res
			if g.States != w.States || g.Transitions != w.Transitions || g.Depth != w.Depth || g.Truncated != w.Truncated {
				t.Errorf("%s: %d workers explore (states, transitions, depth, truncated) = (%d, %d, %d, %v), one (%d, %d, %d, %v)",
					name, workers, g.States, g.Transitions, g.Depth, g.Truncated, w.States, w.Transitions, w.Depth, w.Truncated)
			}
			if !slices.Equal(got.recs, one.recs) {
				t.Errorf("%s: %d workers find another arena than one", name, workers)
			}
			switch {
			case (g.Violation == nil) != (w.Violation == nil):
				t.Errorf("%s: %d workers find violation %v, one %v", name, workers, g.Violation, w.Violation)
			case g.Violation != nil && (!slices.Equal(g.Violation.Trace, w.Violation.Trace) || !reflect.DeepEqual(g.Violation.Violations, w.Violation.Violations)):
				t.Errorf("%s: %d workers find the witness\n%s\none\n%s", name, workers, g.Violation, w.Violation)
			case got.spec != one.spec:
				t.Errorf("%s: %d workers give the replay seed\n%s\none\n%s", name, workers, got.spec, one.spec)
			}
			if !slices.Equal(got.reports, one.reports) {
				t.Errorf("%s: %d workers report progress\n%v\none\n%v", name, workers, got.reports, one.reports)
			}
		}
	}
	for _, workers := range []int{2, 3} {
		if splitWhole[workers] == 0 || splitCut[workers] == 0 {
			t.Errorf("at %d workers, %d whole and %d truncated cells have a layer big enough to split", workers, splitWhole[workers], splitCut[workers])
		}
	}
}

// TestProgressEndsWithTheResult: the last progress report is the result's
// count on each of the search's three ways out — the bound exhausted, a
// violation found by a transition, a violation in the initial state.
func TestProgressEndsWithTheResult(t *testing.T) {
	line3, _ := NamedTopology("line3")
	scenario.RegisterProtocol("ldr-looped", func(n *routing.Node) routing.Protocol {
		return &loopedLDR{core.New(n, core.DefaultConfig()), n.ID()}
	})
	for _, c := range []struct {
		proto     string
		violation bool
	}{{"ldr", false}, {"aodv", true}, {"ldr-looped", true}} {
		var last Progress
		calls := 0
		res, err := Check(&Scenario{Graph: line3, Protocol: c.proto, Seed: 1}, Options{
			MaxDepth: 12, MaxResets: 1, MaxDrops: 1,
			Progress: func(p Progress) { last, calls = p, calls+1 },
		})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Violation != nil) != c.violation {
			t.Fatalf("%s: violation %v, want one: %v", c.proto, res.Violation, c.violation)
		}
		want := Progress{States: res.States, Transitions: res.Transitions, Depth: res.Depth, Elapsed: res.Elapsed}
		if calls == 0 || last != want {
			t.Errorf("%s: the last of %d reports is %+v, want %+v", c.proto, calls, last, want)
		}
	}
}

// loopedLDR reports node 0 and node 1 routing to node 2 through each other
// from the start, which loopcheck calls a loop.
type loopedLDR struct {
	*core.LDR
	id routing.NodeID
}

func (l *loopedLDR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	if l.id < 2 {
		out = append(out, routing.RouteEntry{Dst: 2, Next: 1 - l.id, Metric: 1, Valid: true})
	}
	return out
}

// TestHandlersRunOneAtATime: a factory may share state across the
// instances it builds, as the benchmark's timing decorator shares one
// unsynchronised tally. Here every instance's handlers count into one plain
// counter and note a second handler entering while one runs. At three
// workers — through Check, so at the worker count Check picks — no two may
// overlap, `go test -race` must find no race, and the search must be the
// one-worker one. The triangle's layer 8 is wide enough to be split.
func TestHandlersRunOneAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g, _ := NamedTopology("n3-1")
	opts := Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1}
	var shared handlerTally
	scenario.RegisterProtocol("ldr-tallied", func(n *routing.Node) routing.Protocol {
		return &talliedLDR{core.New(n, core.DefaultConfig()), &shared}
	})
	res, err := Check(&Scenario{Graph: g, Protocol: "ldr-tallied", Seed: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if shared.overlaps != 0 || shared.inside != 0 {
		t.Errorf("handlers overlapped %d times (%d inside at the end), in %d calls", shared.overlaps, shared.inside, shared.calls)
	}
	if shared.calls == 0 {
		t.Error("no handler ran")
	}
	wantExploration(t, res, 15563, 21891, 9)
}

// handlerTally is written by every instance's handlers, unsynchronised.
type handlerTally struct {
	calls, inside, overlaps int
}

func (h *handlerTally) enter() {
	h.calls++
	h.inside++
	if h.inside > 1 {
		h.overlaps++
	}
}

func (h *handlerTally) leave() { h.inside-- }

type talliedLDR struct {
	*core.LDR
	tally *handlerTally
}

func (l *talliedLDR) HandleControl(from routing.NodeID, msg routing.Message) {
	l.tally.enter()
	defer l.tally.leave()
	l.LDR.HandleControl(from, msg)
}

func (l *talliedLDR) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	l.tally.enter()
	defer l.tally.leave()
	l.LDR.HandleData(from, pkt)
}

func (l *talliedLDR) Originate(pkt *routing.DataPacket) {
	l.tally.enter()
	defer l.tally.leave()
	l.LDR.Originate(pkt)
}

// TestWorkerPanicReachesTheCaller: a protocol that panics mid-search
// panics Check's caller, with the protocol's value, though it panicked on
// another worker's goroutine — so a harness that recovers a cell's panic
// still can. Here only the nodes of the worlds built after the caller's
// world panic. Those worlds are built for the other workers when the
// triangle's layer 8 is split across them, and only those workers use them.
func TestWorkerPanicReachesTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g, _ := NamedTopology("n3-1")
	built := 0 // worlds are built one at a time, on the caller's goroutine
	scenario.RegisterProtocol("ldr-panicking", func(n *routing.Node) routing.Protocol {
		built++
		return &panickingLDR{core.New(n, core.DefaultConfig()), built > g.N}
	})
	defer func() {
		if r := recover(); r != errHandler {
			t.Errorf("Check panicked with %v, want %v", r, errHandler)
		}
	}()
	Check(&Scenario{Graph: g, Protocol: "ldr-panicking", Seed: 1}, Options{MaxDepth: 9, MaxResets: 1, MaxDrops: 1})
	t.Error("Check returned")
}

var errHandler = errors.New("handler failed")

// panickingLDR panics in every control handler call if it is a node of a
// world other than the first built.
type panickingLDR struct {
	*core.LDR
	panics bool
}

func (l *panickingLDR) HandleControl(from routing.NodeID, msg routing.Message) {
	if l.panics {
		panic(errHandler)
	}
	l.LDR.HandleControl(from, msg)
}
