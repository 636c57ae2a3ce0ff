// Package loopcheck verifies LDR's central claims at runtime: that the
// successor graph toward every destination is loop-free at every instant
// (Theorem 4) and that the (sequence number, feasible distance) labels
// along every successor path satisfy the ordering criterion (Theorem 2).
//
// The checker walks the instantaneous routing tables of all nodes — a
// god's-eye view no protocol has — so it lives outside the protocols and
// is hooked into simulations by tests, benchmarks, and the invariants
// example.
package loopcheck

import (
	"fmt"

	"github.com/manetlab/ldr/internal/routing"
)

// Violation describes one invariant breach.
type Violation struct {
	Dst   routing.NodeID
	Cycle []routing.NodeID // the offending successor cycle, if any
	Msg   string
}

// Error renders the violation.
func (v Violation) Error() string {
	if len(v.Cycle) > 0 {
		return fmt.Sprintf("loopcheck: routing loop toward %d: %v", v.Dst, v.Cycle)
	}
	return fmt.Sprintf("loopcheck: ordering violation toward %d: %s", v.Dst, v.Msg)
}

// hop is one node's valid route toward some destination.
type hop struct {
	next  routing.NodeID
	seq   uint64
	fd    int
	has   bool // a valid route exists
	hasFD bool // the (seq, fd) label is meaningful
}

// Check inspects the instantaneous routing state of all nodes and returns
// every violation found. Protocols that do not implement
// routing.TableSnapshotter are skipped. One-shot convenience over
// Checker; continuous auditors should hold a Checker and reuse it.
func Check(nodes []*routing.Node) []Violation {
	return NewChecker().Check(nodes)
}

// Checker runs repeated invariant checks over the same network without
// per-check allocation: the successor matrix, DFS state, and snapshot
// buffer are all reused, and nodes/destinations are visited in ascending
// ID order so the violations returned are deterministic. Not safe for
// concurrent use; each worker holds its own Checker.
type Checker struct {
	n       int
	succ    []hop            // n×n matrix: succ[dst*n+node]
	dstUsed []bool           // destinations with ≥1 valid route
	state   []uint8          // DFS: 0 unvisited, 1 on current path, 2 cleared
	path    []routing.NodeID // DFS path scratch
	snap    []routing.RouteEntry
}

// NewChecker returns an empty Checker; it sizes itself to the node count
// on first use.
func NewChecker() *Checker { return &Checker{} }

// resize readies the matrix for a check over n nodes. A route is only ever
// written into a used destination's row, so clearing those rows clears
// everything the last check wrote.
func (c *Checker) resize(n int) {
	if c.n != n {
		c.n = n
		c.succ = make([]hop, n*n)
		c.dstUsed = make([]bool, n)
		c.state = make([]uint8, n)
		return
	}
	for dst, used := range c.dstUsed {
		if used {
			clear(c.succ[dst*n : dst*n+n])
			c.dstUsed[dst] = false
		}
	}
}

// Check snapshots every node's routing table and returns all loop and
// ordering violations, sorted by destination then discovery order. The
// returned slice is freshly allocated only when violations exist; a clean
// network costs zero allocations once the Checker is warm.
func (c *Checker) Check(nodes []*routing.Node) []Violation {
	c.resize(len(nodes))
	for _, node := range nodes {
		var snap []routing.RouteEntry
		switch p := node.Protocol().(type) {
		case routing.TableAppender:
			c.snap = p.AppendTable(c.snap[:0])
			snap = c.snap
		case routing.TableSnapshotter:
			snap = p.SnapshotTable()
		default:
			continue
		}
		c.addTable(int(node.ID()), snap)
	}
	return c.finish()
}

// CheckTables is the single loop-freedom/ordering predicate over a
// god's-eye view of routing state that has already been snapshotted:
// tables[i] is node i's table (routing.TableAppender output). Both the
// continuous auditor (via Check) and the bounded model checker
// (internal/modelcheck, which holds abstract states rather than live
// networks) evaluate the invariant through this one entry point, so the
// two can never drift.
func (c *Checker) CheckTables(tables [][]routing.RouteEntry) []Violation {
	c.resize(len(tables))
	for id, snap := range tables {
		c.addTable(id, snap)
	}
	return c.finish()
}

// addTable folds one node's snapshot into the successor matrix.
func (c *Checker) addTable(id int, snap []routing.RouteEntry) {
	n := c.n
	for _, e := range snap {
		if !e.Valid || int(e.Dst) < 0 || int(e.Dst) >= n || int(e.Dst) == id {
			continue
		}
		c.succ[int(e.Dst)*n+id] = hop{
			next:  e.Next,
			seq:   e.SeqNo,
			fd:    e.FD,
			has:   true,
			hasFD: e.FD > 0,
		}
		c.dstUsed[e.Dst] = true
	}
}

// finish walks the folded successor matrix for every used destination.
func (c *Checker) finish() []Violation {
	var violations []Violation
	for dst := 0; dst < c.n; dst++ {
		if c.dstUsed[dst] {
			violations = c.checkDst(routing.NodeID(dst), violations)
		}
	}
	return violations
}

// checkDst walks every successor chain toward dst, detecting cycles and
// (when feasible distances are available) ordering-criterion breaches.
func (c *Checker) checkDst(dst routing.NodeID, violations []Violation) []Violation {
	n := c.n
	succ := c.succ[int(dst)*n : int(dst)*n+n]
	for i := range c.state {
		c.state[i] = 0
	}

	for start := 0; start < n; start++ {
		if !succ[start].has || c.state[start] != 0 {
			continue
		}
		path := c.path[:0]
		cur := routing.NodeID(start)
		for {
			if cur == dst {
				break // reached the destination: chain is fine
			}
			i := int(cur)
			if i < 0 || i >= n || !succ[i].has {
				break // chain leaves the set of valid routes: no loop here
			}
			switch c.state[i] {
			case 1:
				// Found a node already on the current path: cycle.
				violations = append(violations, Violation{Dst: dst, Cycle: cycleFrom(path, cur)})
				c.state[i] = 2
			case 2:
				// Joins an already-cleared chain.
			default:
				c.state[i] = 1
				path = append(path, cur)
				cur = succ[i].next
				continue
			}
			break
		}
		for _, id := range path {
			c.state[id] = 2
		}
		c.path = path[:0] // keep any growth for the next chain
	}

	// Ordering criterion (Theorem 2): for an edge A→B on the successor
	// graph (B = A's next hop, B ≠ dst, both with routes and labels):
	// sn_B > sn_A, or sn_B = sn_A ∧ fd_B < fd_A.
	for a := 0; a < n; a++ {
		h := succ[a]
		if !h.has || !h.hasFD || h.next == dst {
			continue
		}
		b := int(h.next)
		if b < 0 || b >= n {
			continue
		}
		nh := succ[b]
		if !nh.has || !nh.hasFD {
			continue
		}
		if nh.seq < h.seq {
			violations = append(violations, Violation{
				Dst: dst,
				Msg: fmt.Sprintf("successor %d has older seq (%d) than %d (%d)", h.next, nh.seq, a, h.seq),
			})
		} else if nh.seq == h.seq && nh.fd >= h.fd {
			violations = append(violations, Violation{
				Dst: dst,
				Msg: fmt.Sprintf("successor %d fd=%d not below %d fd=%d at equal seq", h.next, nh.fd, a, h.fd),
			})
		}
	}
	return violations
}

func cycleFrom(path []routing.NodeID, repeat routing.NodeID) []routing.NodeID {
	for i, n := range path {
		if n == repeat {
			out := append([]routing.NodeID(nil), path[i:]...)
			return append(out, repeat)
		}
	}
	return append([]routing.NodeID(nil), repeat)
}
