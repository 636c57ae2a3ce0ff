package modelcheck

// Small-topology machinery: enumeration of every non-isomorphic connected
// graph on 3–5 nodes (the checker's sweep domain), named topologies for
// the CLI, and unit-disk layouts realizing each graph under the
// simulator's radio range (witness replay needs real coordinates).

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
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

// bitmask packs the adjacency of g with node i renamed perm[i] (nil: as
// it is): edge (a, b) → bit a*N+b with a < b.
func (g Graph) bitmask(perm []int) uint64 {
	var m uint64
	for _, e := range g.Edges {
		a, b := e[0], e[1]
		if perm != nil {
			a, b = perm[a], perm[b]
		}
		m |= 1 << uint(min(a, b)*g.N+max(a, b))
	}
	return m
}

// Neighbors returns each node's sorted neighbor list.
func (g Graph) Neighbors() [][]int {
	nb := make([][]int, g.N)
	for _, e := range g.Edges {
		nb[e[0]] = append(nb[e[0]], e[1])
		nb[e[1]] = append(nb[e[1]], e[0])
	}
	for i := range nb {
		slices.Sort(nb[i])
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

// connected reports whether the graph is connected.
func connected(g Graph) bool {
	if g.N == 0 {
		return false
	}
	nb := g.Neighbors()
	seen, stack := 1, []int{0} // seen: a bit set
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range nb[v] {
			if seen&(1<<u) == 0 {
				seen |= 1 << u
				stack = append(stack, u)
			}
		}
	}
	return seen == 1<<g.N-1
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
		canon := g.bitmask(nil)
		for _, perm := range perms {
			canon = min(canon, g.bitmask(perm))
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		if g.bitmask(nil) != canon {
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
	var names []string
	for n := range namedTopologies {
		names = append(names, n)
	}
	slices.Sort(names)
	return Graph{}, fmt.Errorf("modelcheck: unknown topology %q (have %s, or n<nodes>-<k>)", name, strings.Join(names, ", "))
}

// Layout places the graph's nodes on the plane so that adjacent pairs
// sit within the simulator's default radio range (275 m) and
// non-adjacent pairs sit beyond it — a unit-disk realization, needed to
// replay an abstract witness through the full MAC/radio stack. Fixed
// shapes are tried first; a graph none of them fits gets a seeded
// search (searchLayout). An unrealizable graph returns an error rather
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
	if a, b, ok := inducedK23(g); ok {
		return nil, fmt.Errorf("modelcheck: %s is not a unit-disk graph: nodes %d and %d are not adjacent but share three pairwise non-adjacent neighbors (an induced K2,3)", g, a, b)
	}
	if pts := searchLayout(g); pts != nil {
		return pts, nil
	}
	return nil, fmt.Errorf("modelcheck: no unit-disk layout found for %s", g)
}

// inducedK23 finds two non-adjacent nodes with three pairwise
// non-adjacent common neighbors. No unit-disk layout has one: with a and
// b more than a range apart, the points within range of both form a lens
// whose every point is within range of each of its two tips, so no three
// of them are pairwise out of range. The common neighbors are picked
// greedily, which is exact while a pair has at most three of them, as on
// five nodes.
func inducedK23(g Graph) (a, b int, ok bool) {
	nb := g.Neighbors()
	for a := range nb {
		for b := a + 1; b < g.N; b++ {
			var apart []int
			for _, c := range nb[a] {
				if slices.Contains(nb[b], c) && !slices.ContainsFunc(apart, func(d int) bool { return slices.Contains(nb[c], d) }) {
					apart = append(apart, c)
				}
			}
			if len(apart) >= 3 && !slices.Contains(nb[a], b) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}

// searchLayout places nodes 0, 1, … in turn, each at a bearing and a
// distance under twice the range from a node placed before it, drawn from
// a fixed seed, and keeps a draw that layoutMatches accepts among the
// nodes placed so far. A layout that takes 500 draws starts over, and the
// search gives up after 1,000 layouts, so the result is a pure function
// of the graph.
func searchLayout(g Graph) []mobility.Point {
	src := rng.New(1)
	for try := 0; try < 1000; try++ {
		pts := []mobility.Point{{X: 400, Y: 400}}
		for draw := 0; draw < 500 && len(pts) < g.N; draw++ {
			at, ang, r := pts[src.Intn(len(pts))], 2*math.Pi*src.Float64(), 2*radio.DefaultRange*src.Float64()
			pts = append(pts, mobility.Point{X: at.X + r*math.Cos(ang), Y: at.Y + r*math.Sin(ang)})
			if !layoutMatches(g, pts) {
				pts = pts[:len(pts)-1]
			}
		}
		if len(pts) == g.N {
			return pts
		}
	}
	return nil
}

// layoutMatches verifies pts realizes exactly g's adjacency among the
// first len(pts) nodes under the default radio range, with a safety
// margin on both sides so MAC-level behaviour is unambiguous.
func layoutMatches(g Graph, pts []mobility.Point) bool {
	const margin = 15.0
	adj := g.bitmask(nil)
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			dx, dy := pts[a].X-pts[b].X, pts[a].Y-pts[b].Y
			d := math.Sqrt(dx*dx + dy*dy)
			if adj&(1<<uint(a*g.N+b)) != 0 {
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
