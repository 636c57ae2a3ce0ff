// Package dual implements a single-destination version of the Diffusing
// Update Algorithm (DUAL, Garcia-Luna-Aceves 1993) — the loop-free
// distance-vector algorithm whose feasibility condition LDR's Numbered
// Distance Condition descends from, and whose *coordination machinery*
// LDR's destination-controlled sequence numbers eliminate.
//
// DUAL runs over reliable, in-order links (it was designed for wire-line
// networks; EIGRP is its production descendant). A node may switch
// successor locally only when the Source Node Condition holds — some
// neighbor's reported distance is strictly below the node's feasible
// distance. Otherwise it must become *active*: freeze its route, send
// queries to every neighbor, and wait for all replies (a diffusing
// computation, Dijkstra–Scholten style) before resetting its feasible
// distance and choosing again.
//
// The package exists to make the paper's §1 comparison concrete and
// measurable: the bench in bench_test.go counts coordination messages per
// topology change for DUAL against LDR's purely local NDC decision. The
// implementation follows the classic algorithm but simplifies the
// active-state bookkeeping to a single diffusing computation per node at
// a time (no reply-status matrix across four active states); queries
// reaching an already-active node are answered immediately with its
// frozen distance, which preserves termination and loop-freedom at the
// price of occasionally suboptimal first answers — both properties the
// tests verify.
package dual

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/sim"
)

// Infinity marks an unreachable destination.
const Infinity = 1 << 24

// msgKind labels DUAL's three message types.
type msgKind uint8

const (
	msgUpdate msgKind = iota + 1
	msgQuery
	msgReply
)

func (k msgKind) String() string {
	switch k {
	case msgUpdate:
		return "update"
	case msgQuery:
		return "query"
	case msgReply:
		return "reply"
	default:
		return "?"
	}
}

// message is one DUAL control message for the single destination.
type message struct {
	kind msgKind
	from int
	dist int
}

// Network is a wire-line topology running DUAL toward one destination.
type Network struct {
	sim     *sim.Simulator
	dest    int
	latency time.Duration
	nodes   []*node
	links   map[[2]int]int // cost per undirected edge

	// Messages counts control messages by kind, the coordination-cost
	// measure the LDR comparison uses.
	Messages map[string]int
}

type node struct {
	id             int
	dist           int
	fd             int
	successor      int         // -1 when none
	reported       map[int]int // neighbor → last distance it advertised
	active         bool
	pending        map[int]bool // neighbors owing a reply
	frozen         int          // distance advertised while active
	pendingReplyTo []int        // queriers awaiting this node's own computation
}

// NewNetwork creates a DUAL network of n nodes with the given destination.
// Links are added with AddLink before Run-style event injection.
func NewNetwork(s *sim.Simulator, n, dest int, latency time.Duration) *Network {
	nw := &Network{
		sim:      s,
		dest:     dest,
		latency:  latency,
		links:    make(map[[2]int]int),
		Messages: make(map[string]int),
	}
	for i := 0; i < n; i++ {
		nd := &node{
			id:        i,
			dist:      Infinity,
			fd:        Infinity,
			successor: -1,
			reported:  make(map[int]int),
			pending:   make(map[int]bool),
		}
		if i == dest {
			nd.dist, nd.fd = 0, 0
			nd.successor = i
		}
		nw.nodes = append(nw.nodes, nd)
	}
	return nw
}

func edge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// AddLink installs (or re-costs) the undirected link a–b and triggers the
// distributed recomputation.
func (nw *Network) AddLink(a, b, cost int) {
	nw.links[edge(a, b)] = cost
	// Each endpoint learns the other's current advertised distance.
	nw.send(b, a, msgUpdate, nw.nodes[b].advertised())
	nw.send(a, b, msgUpdate, nw.nodes[a].advertised())
}

// RemoveLink deletes the link a–b and lets DUAL reconverge.
func (nw *Network) RemoveLink(a, b int) {
	delete(nw.links, edge(a, b))
	na, nb := nw.nodes[a], nw.nodes[b]
	delete(na.reported, b)
	delete(nb.reported, a)
	delete(na.pending, b)
	delete(nb.pending, a)
	nw.sim.Schedule(0, func() { nw.recompute(a) })
	nw.sim.Schedule(0, func() { nw.recompute(b) })
}

// neighbors lists the current neighbors of id with costs.
func (nw *Network) neighbors(id int) map[int]int {
	out := make(map[int]int)
	for e, c := range nw.links {
		if e[0] == id {
			out[e[1]] = c
		} else if e[1] == id {
			out[e[0]] = c
		}
	}
	return out
}

// advertised is the distance a node currently reports to its neighbors.
func (n *node) advertised() int {
	if n.active {
		return n.frozen
	}
	return n.dist
}

// send transports one control message over a (reliable) link.
func (nw *Network) send(from, to int, kind msgKind, dist int) {
	if _, ok := nw.links[edge(from, to)]; !ok && kind != msgUpdate {
		return
	}
	nw.Messages[kind.String()]++
	nw.sim.Schedule(nw.latency, func() {
		nw.receive(to, message{kind: kind, from: from, dist: dist})
	})
}

func (nw *Network) receive(id int, m message) {
	n := nw.nodes[id]
	if _, stillLinked := nw.links[edge(id, m.from)]; !stillLinked {
		return // link vanished while the message was in flight
	}
	switch m.kind {
	case msgUpdate:
		n.reported[m.from] = m.dist
		nw.recompute(id)
	case msgQuery:
		n.reported[m.from] = m.dist
		if id == nw.dest {
			nw.send(id, m.from, msgReply, 0)
			return
		}
		if n.active {
			if m.from == n.successor {
				// A query from the successor means our frozen distance is
				// built on the very route being torn down; the reply must
				// wait for our own computation to complete.
				n.pendingReplyTo = append(n.pendingReplyTo, m.from)
				return
			}
			// Non-successor queriers get the frozen distance immediately
			// (they are not downstream of us on the route in question).
			nw.send(id, m.from, msgReply, n.frozen)
			return
		}
		// Passive: recompute; if still feasible, answer with the result,
		// otherwise this node goes active itself and will answer when its
		// own computation completes.
		nw.recompute(id)
		if !n.active {
			nw.send(id, m.from, msgReply, n.dist)
		} else {
			n.pendingReplyTo = append(n.pendingReplyTo, m.from)
		}
	case msgReply:
		if !n.active {
			return
		}
		n.reported[m.from] = m.dist
		delete(n.pending, m.from)
		if len(n.pending) == 0 {
			nw.completeDiffusing(id)
		}
	}
}

// recompute applies the Source Node Condition at node id.
func (nw *Network) recompute(id int) {
	n := nw.nodes[id]
	if id == nw.dest || n.active {
		return
	}
	nbs := nw.neighbors(id)
	best, bestVia := Infinity, -1
	feasible := false
	for nb, cost := range nbs {
		rd, ok := n.reported[nb]
		if !ok {
			continue
		}
		d := rd + cost
		if d >= Infinity {
			d = Infinity
		}
		if d < best || (d == best && nb == n.successor) {
			best, bestVia = d, nb
		}
	}
	// The distance through the current successor, which is what a node
	// must freeze and advertise while active. If the successor link is
	// gone (or was never set) this is Infinity — crucially NOT the best
	// distance over other neighbors, whose reports may be stale values
	// that route back through us (the count-to-infinity poison DUAL's
	// freezing discipline exists to prevent).
	viaSucc := Infinity
	if n.successor >= 0 && n.successor != id {
		if cost, linked := nbs[n.successor]; linked {
			if rd, ok := n.reported[n.successor]; ok && rd+cost < Infinity {
				viaSucc = rd + cost
			}
		}
	}
	if best >= Infinity {
		// Unreachability is a valid resting state: no diffusing
		// computation is needed to *stay* at infinity, only to get there
		// from a finite distance.
		if n.dist >= Infinity {
			n.successor = -1
			return
		}
		nw.startDiffusing(id, Infinity)
		return
	}
	if bestVia >= 0 {
		// SNC: the chosen neighbor's reported distance must be below fd.
		if n.reported[bestVia] < n.fd {
			feasible = true
		}
	}
	if feasible {
		changed := n.dist != best || n.successor != bestVia
		n.dist = best
		if best < n.fd {
			n.fd = best
		}
		n.successor = bestVia
		if changed {
			nw.broadcastUpdate(id)
		}
		return
	}
	// No feasible successor: start a diffusing computation, freezing the
	// distance through the current successor.
	nw.startDiffusing(id, viaSucc)
}

func (nw *Network) startDiffusing(id, proposed int) {
	n := nw.nodes[id]
	n.active = true
	n.frozen = proposed
	if n.frozen >= Infinity {
		n.frozen = Infinity
	}
	nbs := nw.neighbors(id)
	if len(nbs) == 0 {
		nw.completeDiffusing(id)
		return
	}
	for nb := range nbs {
		n.pending[nb] = true
		nw.send(id, nb, msgQuery, n.frozen)
	}
}

// completeDiffusing ends the computation: every neighbor has replied, so
// no neighbor can be using this node as successor with stale state — the
// feasible distance may be reset and any successor chosen.
func (nw *Network) completeDiffusing(id int) {
	n := nw.nodes[id]
	n.active = false
	n.fd = Infinity
	best, bestVia := Infinity, -1
	for nb, cost := range nw.neighbors(id) {
		rd, ok := n.reported[nb]
		if !ok {
			continue
		}
		if d := rd + cost; d < best {
			best, bestVia = d, nb
		}
	}
	if bestVia >= 0 && best < Infinity {
		n.dist = best
		n.fd = best
		n.successor = bestVia
	} else {
		n.dist = Infinity
		n.successor = -1
	}
	nw.broadcastUpdate(id)
	for _, waiter := range n.pendingReplyTo {
		nw.send(id, waiter, msgReply, n.dist)
	}
	n.pendingReplyTo = nil
	// The frozen answer may have been superseded; re-run SNC to settle.
	nw.recompute(id)
}

func (nw *Network) broadcastUpdate(id int) {
	n := nw.nodes[id]
	for nb := range nw.neighbors(id) {
		nw.send(id, nb, msgUpdate, n.advertised())
	}
}

// Dist returns node id's current distance to the destination.
func (nw *Network) Dist(id int) int { return nw.nodes[id].dist }

// Successor returns node id's successor (-1 when none).
func (nw *Network) Successor(id int) int { return nw.nodes[id].successor }

// Active reports whether node id is inside a diffusing computation.
func (nw *Network) Active(id int) bool { return nw.nodes[id].active }

// TotalMessages sums all coordination messages sent so far.
func (nw *Network) TotalMessages() int {
	var sum int
	for _, v := range nw.Messages {
		sum += v
	}
	return sum
}

// CheckLoopFree walks every successor chain and returns an error if any
// cycle exists — DUAL's instantaneous loop-freedom invariant.
func (nw *Network) CheckLoopFree() error {
	for start := range nw.nodes {
		slow, fast := start, start
		for {
			fast = nw.step(fast)
			if fast < 0 || fast == nw.dest {
				break
			}
			fast = nw.step(fast)
			if fast < 0 || fast == nw.dest {
				break
			}
			slow = nw.step(slow)
			if slow == fast {
				return fmt.Errorf("dual: successor loop through node %d toward %d", slow, nw.dest)
			}
		}
	}
	return nil
}

func (nw *Network) step(id int) int {
	if id < 0 || id == nw.dest {
		return -1
	}
	s := nw.nodes[id].successor
	if s == id {
		return -1
	}
	return s
}
