// Package tora implements the link-reversal routing algorithms of Gafni
// and Bertsekas (1981) that TORA (Park & Corson, 1997) builds on — the
// third loop-free-routing lineage the LDR paper positions itself against
// (§1: "TORA uses a link-reversal algorithm to maintain loop-free
// multipaths... TORA relies on synchronized clocks... The link-reversal
// algorithm is a form of synchronization among nodes spanning multiple
// hops").
//
// Nodes carry totally ordered heights; every link is directed from the
// higher to the lower endpoint, and data flows downhill to the
// destination. A node that loses its last outgoing link reverses: it
// raises its height above (some of) its neighbors, which may strand them
// in turn — reversals cascade until the graph is again destination-
// oriented. Full reversal lifts above all neighbors; partial reversal
// (what TORA uses) lifts only above the neighbors that did not recently
// reverse, touching a smaller region.
//
// The implementation runs on an abstract graph with synchronous reversal
// rounds, which is the standard setting for analyzing these algorithms;
// the bench suite compares its reversal counts against DUAL's diffusing
// messages and LDR's local label decisions for the same topology events.
package tora

import "fmt"

// Variant selects the reversal rule.
type Variant int

// The two Gafni-Bertsekas reversal rules.
const (
	FullReversal Variant = iota + 1
	PartialReversal
)

// Height is a totally ordered node label. Links point from greater to
// smaller heights. The triple mirrors the partial-reversal algorithm's
// (a, b, id) form; full reversal uses only (a, id).
type Height struct {
	A  int // reversal generation
	B  int // partial-reversal sublevel
	ID int // node identifier, the unique tiebreak
}

// Less orders heights lexicographically.
func (h Height) Less(o Height) bool {
	if h.A != o.A {
		return h.A < o.A
	}
	if h.B != o.B {
		return h.B < o.B
	}
	return h.ID < o.ID
}

// Network is a graph with destination-oriented heights.
type Network struct {
	variant Variant
	dest    int
	adj     [][]int
	present []map[int]bool
	heights []Height

	// Reversals counts node reversal operations; Rounds counts the
	// synchronous rounds needed to re-orient after the last event. Both
	// measure the multi-hop coordination the paper attributes to
	// link-reversal routing.
	Reversals int
	Rounds    int
}

// New builds a network of n nodes with the given destination and variant.
// Initial heights make node IDs the gradient, which is destination-
// oriented only by accident; call Stabilize after adding links.
func New(n, dest int, variant Variant) *Network {
	nw := &Network{
		variant: variant,
		dest:    dest,
		adj:     make([][]int, n),
		present: make([]map[int]bool, n),
		heights: make([]Height, n),
	}
	for i := 0; i < n; i++ {
		nw.present[i] = make(map[int]bool)
		nw.heights[i] = Height{A: 0, B: 0, ID: i}
	}
	nw.heights[dest] = Height{A: -1, B: 0, ID: dest} // globally lowest
	return nw
}

// AddLink inserts the undirected link a–b.
func (nw *Network) AddLink(a, b int) {
	if a == b || nw.present[a][b] {
		return
	}
	nw.present[a][b] = true
	nw.present[b][a] = true
	nw.adj[a] = append(nw.adj[a], b)
	nw.adj[b] = append(nw.adj[b], a)
}

// RemoveLink deletes the undirected link a–b.
func (nw *Network) RemoveLink(a, b int) {
	if !nw.present[a][b] {
		return
	}
	delete(nw.present[a], b)
	delete(nw.present[b], a)
	nw.adj[a] = remove(nw.adj[a], b)
	nw.adj[b] = remove(nw.adj[b], a)
}

func remove(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// Height returns node id's current height.
func (nw *Network) HeightOf(id int) Height { return nw.heights[id] }

// Downstream returns the neighbors of id with lower height (the outgoing
// links data may use).
func (nw *Network) Downstream(id int) []int {
	var out []int
	for _, nb := range nw.adj[id] {
		if nw.heights[nb].Less(nw.heights[id]) {
			out = append(out, nb)
		}
	}
	return out
}

// isStranded reports whether id needs to reverse: it has neighbors but no
// outgoing link, and is not the destination.
func (nw *Network) isStranded(id int) bool {
	if id == nw.dest || len(nw.adj[id]) == 0 {
		return false
	}
	return len(nw.Downstream(id)) == 0
}

// Stabilize runs synchronous reversal rounds until no node is stranded,
// returning the number of rounds. It panics only on a logic error (the
// algorithms are proven to terminate on any graph).
func (nw *Network) Stabilize() int {
	rounds := 0
	for {
		var stranded []int
		for id := range nw.adj {
			// Nodes partitioned away from the destination would reverse
			// forever (the known Gafni-Bertsekas behaviour); TORA detects
			// partitions and clears their routes instead. The connectivity
			// filter stands in for that detection.
			if nw.isStranded(id) && nw.Connected(id) {
				stranded = append(stranded, id)
			}
		}
		if len(stranded) == 0 {
			nw.Rounds = rounds
			return rounds
		}
		rounds++
		if rounds > 1<<20 {
			panic("tora: reversal did not terminate")
		}
		for _, id := range stranded {
			nw.reverse(id)
			nw.Reversals++
		}
	}
}

// reverse applies the variant's reversal rule at a stranded node.
func (nw *Network) reverse(id int) {
	switch nw.variant {
	case FullReversal:
		// Raise above every neighbor: new A = max(neighbor A) + 1.
		maxA := nw.heights[id].A
		for _, nb := range nw.adj[id] {
			if nw.heights[nb].A > maxA {
				maxA = nw.heights[nb].A
			}
		}
		nw.heights[id] = Height{A: maxA + 1, B: 0, ID: id}
	case PartialReversal:
		// Raise above only the neighbors that did not just reverse: take
		// the minimum neighbor A-level; climb to it and sit below its
		// recently reversed members via the B sublevel.
		minA := nw.heights[nw.adj[id][0]].A
		for _, nb := range nw.adj[id][1:] {
			if nw.heights[nb].A < minA {
				minA = nw.heights[nb].A
			}
		}
		newA := minA + 1
		// Sit just below the smallest B among neighbors at newA.
		minB := 0
		first := true
		for _, nb := range nw.adj[id] {
			if nw.heights[nb].A == newA {
				if first || nw.heights[nb].B < minB {
					minB = nw.heights[nb].B
					first = false
				}
			}
		}
		b := 0
		if !first {
			b = minB - 1
		}
		nw.heights[id] = Height{A: newA, B: b, ID: id}
	default:
		panic(fmt.Sprintf("tora: unknown variant %d", nw.variant))
	}
}

// RouteExists reports whether id has a directed (downhill) path to the
// destination.
func (nw *Network) RouteExists(id int) bool {
	seen := make(map[int]bool)
	var walk func(int) bool
	walk = func(cur int) bool {
		if cur == nw.dest {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for _, nb := range nw.Downstream(cur) {
			if walk(nb) {
				return true
			}
		}
		return false
	}
	return walk(id)
}

// CheckDAG verifies the height orientation is acyclic (it is by
// construction — heights are a total order — but the check guards the
// implementation).
func (nw *Network) CheckDAG() error {
	for id := range nw.adj {
		for _, nb := range nw.Downstream(id) {
			if !nw.heights[nb].Less(nw.heights[id]) {
				return fmt.Errorf("tora: edge %d→%d not strictly downhill", id, nb)
			}
		}
	}
	return nil
}

// Connected reports whether id and the destination share a component.
func (nw *Network) Connected(id int) bool {
	seen := make(map[int]bool)
	queue := []int{id}
	seen[id] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == nw.dest {
			return true
		}
		for _, nb := range nw.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return false
}
