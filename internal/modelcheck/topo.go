package modelcheck

// Small-topology machinery: enumeration of every non-isomorphic connected
// graph on 3–5 nodes (the checker's sweep domain), named topologies for
// the CLI, and unit-disk layouts realizing each graph under the
// simulator's radio range (witness replay needs real coordinates).

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
)

// Graph is an undirected topology over nodes 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int // each pair (a, b) with a < b
	Name  string   // stable name: "n<N>-<k>" or a well-known alias
}

// maxNodes bounds enumeration and exploration; 2^(n(n-1)/2) edge masks ×
// n! permutations stays trivial through n=5.
const maxNodes = 5

// bitmask packs the adjacency of g (edge (a,b) → bit a*N+b with a<b).
func (g Graph) bitmask() uint64 {
	var m uint64
	for _, e := range g.Edges {
		m |= 1 << uint(e[0]*g.N+e[1])
	}
	return m
}

// Adjacent reports whether a and b share an edge.
func (g Graph) Adjacent(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for _, e := range g.Edges {
		if e[0] == a && e[1] == b {
			return true
		}
	}
	return false
}

// Neighbors returns each node's sorted neighbor list.
func (g Graph) Neighbors() [][]int {
	nb := make([][]int, g.N)
	for _, e := range g.Edges {
		nb[e[0]] = append(nb[e[0]], e[1])
		nb[e[1]] = append(nb[e[1]], e[0])
	}
	for i := range nb {
		sort.Ints(nb[i])
	}
	return nb
}

// String renders the graph compactly: "n4-2 {0-1 1-2 2-3}".
func (g Graph) String() string {
	var b strings.Builder
	b.WriteString(g.Name)
	b.WriteString(" {")
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteString("}")
	return b.String()
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// relabel returns g with node i renamed perm[i].
func relabel(g Graph, perm []int) Graph {
	out := Graph{N: g.N, Name: g.Name, Edges: make([][2]int, 0, len(g.Edges))}
	for _, e := range g.Edges {
		a, b := perm[e[0]], perm[e[1]]
		if a > b {
			a, b = b, a
		}
		out.Edges = append(out.Edges, [2]int{a, b})
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out
}

// connected reports whether the graph is connected.
func connected(g Graph) bool {
	if g.N == 0 {
		return false
	}
	nb := g.Neighbors()
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range nb[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// ConnectedGraphs enumerates every non-isomorphic connected graph on n
// nodes (n ≤ 5), returning the lexicographically minimal representative
// of each isomorphism class, named "n<n>-<k>" in enumeration order.
// Counts: n=3 → 2, n=4 → 6, n=5 → 21 (OEIS A001349).
func ConnectedGraphs(n int) ([]Graph, error) {
	if n < 2 || n > maxNodes {
		return nil, fmt.Errorf("modelcheck: topology size %d out of range [2, %d]", n, maxNodes)
	}
	perms := permutations(n)
	pairs := make([][2]int, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	seen := make(map[uint64]bool)
	var out []Graph
	for mask := 0; mask < 1<<len(pairs); mask++ {
		g := Graph{N: n}
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				g.Edges = append(g.Edges, p)
			}
		}
		if !connected(g) {
			continue
		}
		// Canonical representative: minimal bitmask over all relabelings.
		canon := g.bitmask()
		for _, perm := range perms {
			if m := relabel(g, perm).bitmask(); m < canon {
				canon = m
			}
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		if g.bitmask() != canon {
			continue // keep only the class's minimal representative
		}
		g.Name = fmt.Sprintf("n%d-%d", n, len(out))
		out = append(out, g)
	}
	return out, nil
}

// SweepGraphs concatenates ConnectedGraphs over sizes: the one list of
// topologies a sweep covers (SweepGraphs(3, 4) for ldrcheck's sweep mode
// and the model-check experiment).
func SweepGraphs(sizes ...int) ([]Graph, error) {
	var out []Graph
	for _, n := range sizes {
		gs, err := ConnectedGraphs(n)
		if err != nil {
			return nil, err
		}
		out = append(out, gs...)
	}
	return out, nil
}

// namedTopologies are the CLI aliases for common shapes.
var namedTopologies = map[string]Graph{
	"line3": {N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Name: "line3"},
	"ring3": {N: 3, Edges: [][2]int{{0, 1}, {0, 2}, {1, 2}}, Name: "ring3"},
	"line4": {N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}, Name: "line4"},
	"star4": {N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}, Name: "star4"},
	"ring4": {N: 4, Edges: [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}, Name: "ring4"},
	"line5": {N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, Name: "line5"},
	"ring5": {N: 5, Edges: [][2]int{{0, 1}, {0, 4}, {1, 2}, {2, 3}, {3, 4}}, Name: "ring5"},
}

// NamedTopology resolves a topology by name: a well-known alias (line3,
// ring3, line4, star4, ring4, line5, ring5) or an enumeration name like
// "n4-2" from ConnectedGraphs.
func NamedTopology(name string) (Graph, error) {
	if g, ok := namedTopologies[name]; ok {
		return g, nil
	}
	var n, k int
	if _, err := fmt.Sscanf(name, "n%d-%d", &n, &k); err == nil {
		gs, err := ConnectedGraphs(n)
		if err != nil {
			return Graph{}, fmt.Errorf("modelcheck: topology %q: %w", name, err)
		}
		if k < 0 || k >= len(gs) {
			return Graph{}, fmt.Errorf("modelcheck: topology %q: index out of range (n=%d has %d graphs)", name, n, len(gs))
		}
		return gs[k], nil
	}
	names := make([]string, 0, len(namedTopologies))
	for n := range namedTopologies {
		names = append(names, n)
	}
	sort.Strings(names)
	return Graph{}, fmt.Errorf("modelcheck: unknown topology %q (have %s, or n<nodes>-<k>)", name, strings.Join(names, ", "))
}

// Layout places the graph's nodes on the plane so that adjacent pairs
// sit within the simulator's default radio range (275 m) and
// non-adjacent pairs sit beyond it — a unit-disk realization, needed to
// replay an abstract witness through the full MAC/radio stack. Every
// graph on ≤4 nodes (and the named 5-node shapes) is realizable with
// the layouts tried here; an unrealizable graph returns an error rather
// than a silently wrong replay.
func Layout(g Graph) ([]mobility.Point, error) {
	// Candidate layouts: a line (catches paths), circles of varying
	// radius (catches rings/cliques/stars via radius sweep), and a
	// two-row band. The first candidate satisfying the unit-disk check
	// wins, so layouts are deterministic.
	const spacing = 220 // m; inside range at 1 hop, outside at 2
	var candidates [][]mobility.Point

	line := make([]mobility.Point, g.N)
	for i := range line {
		line[i] = mobility.Point{X: float64(i) * spacing}
	}
	candidates = append(candidates, line)

	for _, r := range []float64{130, 150, 170, 190, 220, 250} {
		circ := make([]mobility.Point, g.N)
		for i := range circ {
			ang := 2 * math.Pi * float64(i) / float64(g.N)
			circ[i] = mobility.Point{X: 400 + r*math.Cos(ang), Y: 400 + r*math.Sin(ang)}
		}
		candidates = append(candidates, circ)
	}

	if g.N == 4 {
		// Diamond for K4−e and friends: 0 and 3 far apart, 1 and 2 close
		// to both.
		candidates = append(candidates, []mobility.Point{
			{X: 0, Y: 150}, {X: 180, Y: 280}, {X: 180, Y: 20}, {X: 360, Y: 150},
		})
		// Star: hub 0, three leaves at 120° (leaf-leaf ≈ 381 m > range).
		candidates = append(candidates, []mobility.Point{
			{X: 400, Y: 400}, {X: 620, Y: 400}, {X: 290, Y: 590.5}, {X: 290, Y: 209.5},
		})
		// Paw/triangle+pendant: triangle 0-1-2 with 3 hanging off 2.
		candidates = append(candidates, []mobility.Point{
			{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 100, Y: 173}, {X: 100, Y: 393},
		})
		// T/star with one long arm.
		candidates = append(candidates, []mobility.Point{
			{X: 220, Y: 220}, {X: 0, Y: 220}, {X: 440, Y: 220}, {X: 220, Y: 440},
		})
	}

	// Candidates fix a geometric shape, not a labeling; the enumeration's
	// lex-min representatives label nodes arbitrarily, so each shape is
	// tried under every node assignment (n ≤ 5 keeps this trivial). The
	// first (candidate, permutation) pair that satisfies the unit-disk
	// check wins, keeping layouts deterministic.
	perms := permutations(g.N)
	assigned := make([]mobility.Point, g.N)
	for _, pts := range candidates {
		for _, perm := range perms {
			for i := range assigned {
				assigned[i] = pts[perm[i]]
			}
			if layoutMatches(g, assigned) {
				return append([]mobility.Point(nil), assigned...), nil
			}
		}
	}
	return nil, fmt.Errorf("modelcheck: no unit-disk layout found for %s", g)
}

// layoutMatches verifies pts realizes exactly g's adjacency under the
// default radio range, with a safety margin on both sides so MAC-level
// behaviour is unambiguous.
func layoutMatches(g Graph, pts []mobility.Point) bool {
	const margin = 15.0
	for a := 0; a < g.N; a++ {
		for b := a + 1; b < g.N; b++ {
			dx, dy := pts[a].X-pts[b].X, pts[a].Y-pts[b].Y
			d := math.Sqrt(dx*dx + dy*dy)
			if g.Adjacent(a, b) {
				if d > radio.DefaultRange-margin {
					return false
				}
			} else if d < radio.DefaultRange+margin {
				return false
			}
		}
	}
	return true
}
