package loopcheck_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/routing"
)

// naiveHasCycle is the oracle: follow the successor chain from every node
// with a step budget; exceeding n steps without reaching the destination
// or a dead end means a cycle.
func naiveHasCycle(dst routing.NodeID, succ map[routing.NodeID]routing.NodeID, n int) bool {
	for start := range succ {
		cur := start
		for steps := 0; steps <= n; steps++ {
			if cur == dst {
				break
			}
			next, ok := succ[cur]
			if !ok {
				break
			}
			if steps == n {
				return true
			}
			cur = next
		}
	}
	return false
}

// TestDetectorAgreesWithNaiveOracle drives the cycle detector with random
// successor graphs and cross-checks it against brute force.
func TestDetectorAgreesWithNaiveOracle(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 12
		const dst = routing.NodeID(0)
		succ := make(map[routing.NodeID]routing.NodeID)
		tables := make(map[int][]routing.RouteEntry)
		for i, v := range raw {
			node := routing.NodeID(i%n + 1) // nodes 1..n-1 may have routes
			next := routing.NodeID(int(v) % (n + 1))
			if next == node {
				continue // self-successor is not representable table state
			}
			if _, dup := succ[node]; dup {
				continue // one entry per node per destination
			}
			succ[node] = next
			tables[int(node)] = append(tables[int(node)], routing.RouteEntry{
				Dst: dst, Next: next, Valid: true,
			})
		}
		nodes := network(tables, n+1)
		got := false
		for _, v := range loopcheck.Check(nodes) {
			if len(v.Cycle) > 0 {
				got = true
			}
		}
		want := naiveHasCycle(dst, succ, n+2)
		return got == want
	}
	cfg := &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReusedCheckerMatchesFresh runs a random sequence of table sets
// through one Checker and each set through a fresh one as well: the
// reused Checker must report the same violations every time. Each set
// names its own destinations, so the sequence keeps retiring
// destinations the check before it used.
func TestReusedCheckerMatchesFresh(t *testing.T) {
	const n, checks = 6, 3000
	r := rand.New(rand.NewSource(29))
	reused := loopcheck.NewChecker()
	var prev []routing.NodeID
	retired, flagged := 0, 0
	for k := 0; k < checks; k++ {
		// One or two destinations per set, and a route at each other node
		// with probability 2/3: long chains, loops and ordering breaches.
		dsts := []routing.NodeID{routing.NodeID(r.Intn(n))}
		if d := routing.NodeID(r.Intn(n)); r.Intn(2) == 0 && d != dsts[0] {
			dsts = append(dsts, d)
		}
		tables := make([][]routing.RouteEntry, n)
		for id := range tables {
			for _, dst := range dsts {
				if int(dst) == id || r.Intn(3) == 0 {
					continue
				}
				tables[id] = append(tables[id], routing.RouteEntry{
					Dst: dst, Next: routing.NodeID(r.Intn(n)), Valid: r.Intn(8) != 0,
					SeqNo: uint64(r.Intn(3)), FD: r.Intn(4),
				})
			}
		}
		for _, dst := range prev {
			if !slices.Contains(dsts, dst) {
				retired++
			}
		}
		prev = dsts
		got, want := reused.CheckTables(tables), loopcheck.NewChecker().CheckTables(tables)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("check %d over %v: reused Checker reports %+v, a fresh one %+v", k, tables, got, want)
		}
		if len(want) > 0 {
			flagged++
		}
	}
	if retired < checks/4 || flagged < checks/10 || flagged > checks*9/10 {
		t.Errorf("%d destinations retired, %d of %d checks flagged: the sequence is too tame", retired, flagged, checks)
	}
}
