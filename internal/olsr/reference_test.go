package olsr

import (
	"sort"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// refOLSR is the map-based link state that olsr.go's id-indexed slices
// replaced, kept as the reference TestFlatStateMatchesMapReference and
// FuzzOLSRState hold the slices to: the same handlers, sweep, MPR
// heuristic and route computation over the six maps (links, twoHop,
// selectors, topology by destination, dup, routes/hops), with every
// expansion of the BFS sorted. What it leaves out touches no link state:
// messages are fresh values rather than pooled, and they go straight to
// SendControl as under Config{JitterQueue: false}.
type refOLSR struct {
	node *routing.Node

	links     map[routing.NodeID]*refLink
	twoHop    map[routing.NodeID]map[routing.NodeID]time.Duration // neighbor → its neighbors → expiry
	selectors map[routing.NodeID]time.Duration                    // neighbors that chose us as MPR
	topology  map[routing.NodeID]map[routing.NodeID]refTuple      // dest → lastHop → tuple
	dup       map[refDupKey]time.Duration

	routes     map[routing.NodeID]routing.NodeID // dest → next hop
	hops       map[routing.NodeID]int
	dirty      bool
	ansn       uint16
	msgSeq     uint16
	helloTimer sim.Timer
	tcTimer    sim.Timer
	sweeper    sim.Timer
}

type refLink struct {
	symmetric bool
	isMPR     bool
	expiry    time.Duration
}

type refTuple struct {
	ansn   uint16
	expiry time.Duration
}

type refDupKey struct {
	origin routing.NodeID
	seq    uint16
}

var (
	_ routing.Protocol           = (*refOLSR)(nil)
	_ routing.Resetter           = (*refOLSR)(nil)
	_ routing.DataFailureHandler = (*refOLSR)(nil)
)

func newRef(node *routing.Node) *refOLSR {
	return &refOLSR{
		node:      node,
		links:     make(map[routing.NodeID]*refLink),
		twoHop:    make(map[routing.NodeID]map[routing.NodeID]time.Duration),
		selectors: make(map[routing.NodeID]time.Duration),
		topology:  make(map[routing.NodeID]map[routing.NodeID]refTuple),
		dup:       make(map[refDupKey]time.Duration),
		routes:    make(map[routing.NodeID]routing.NodeID),
		hops:      make(map[routing.NodeID]int),
	}
}

func (o *refOLSR) Start() {
	helloPhase := time.Duration(o.node.RNG().Float64() * float64(helloInterval))
	tcPhase := helloInterval + time.Duration(o.node.RNG().Float64()*float64(tcInterval))
	o.helloTimer = o.node.Schedule(helloPhase, o.sendHello)
	o.tcTimer = o.node.Schedule(tcPhase, o.sendTC)
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

func (o *refOLSR) Stop() {
	o.helloTimer.Cancel()
	o.tcTimer.Cancel()
	o.sweeper.Cancel()
}

func (o *refOLSR) Reset() {
	o.Stop()
	clear(o.links)
	clear(o.twoHop)
	clear(o.selectors)
	clear(o.topology)
	clear(o.dup)
	clear(o.routes)
	clear(o.hops)
	o.dirty = false
}

func (o *refOLSR) sendHello() {
	o.recomputeMPRs()
	h := &Hello{Origin: o.node.ID()}
	for id, l := range o.links {
		code := LinkAsym
		switch {
		case l.symmetric && l.isMPR:
			code = LinkMPR
		case l.symmetric:
			code = LinkSym
		}
		h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: id, Code: code})
	}
	sort.Slice(h.Neighbors, func(i, j int) bool { return h.Neighbors[i].ID < h.Neighbors[j].ID })
	o.node.Metrics().CountControlInitiate(metrics.Hello)
	o.node.SendControl(routing.BroadcastID, h, nil)
	o.helloTimer = o.node.Schedule(helloInterval, o.sendHello)
}

func (o *refOLSR) sendTC() {
	if len(o.selectors) > 0 {
		o.msgSeq++
		tc := &TC{Origin: o.node.ID(), Seq: o.msgSeq, ANSN: o.ansn, TTL: netDiameter}
		for id := range o.selectors {
			tc.Selectors = append(tc.Selectors, id)
		}
		sortNodeIDs(tc.Selectors)
		o.node.Metrics().CountControlInitiate(metrics.TC)
		o.node.SendControl(routing.BroadcastID, tc, nil)
	}
	o.tcTimer = o.node.Schedule(tcInterval, o.sendTC)
}

func (o *refOLSR) sweep() {
	now := o.node.Now()
	for id, l := range o.links {
		if l.expiry <= now {
			delete(o.links, id)
			delete(o.twoHop, id)
			o.dirty = true
		}
	}
	for n, set := range o.twoHop {
		for th, exp := range set {
			if exp <= now {
				delete(set, th)
				o.dirty = true
			}
		}
		if len(set) == 0 {
			delete(o.twoHop, n)
		}
	}
	for id, exp := range o.selectors {
		if exp <= now {
			delete(o.selectors, id)
			o.ansn++
		}
	}
	for dst, set := range o.topology {
		for last, tup := range set {
			if tup.expiry <= now {
				delete(set, last)
				o.dirty = true
			}
		}
		if len(set) == 0 {
			delete(o.topology, dst)
		}
	}
	for k, exp := range o.dup {
		if exp <= now {
			delete(o.dup, k)
		}
	}
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

func (o *refOLSR) HandleControl(from routing.NodeID, msg routing.Message) {
	switch m := msg.(type) {
	case *Hello:
		o.handleHello(from, *m)
	case *TC:
		o.handleTC(from, *m)
	}
}

func (o *refOLSR) handleHello(from routing.NodeID, h Hello) {
	now := o.node.Now()
	me := o.node.ID()

	l := o.links[from]
	if l == nil {
		l = &refLink{}
		o.links[from] = l
		o.dirty = true
	}
	l.expiry = now + neighborHold

	heardUs := false
	selectedUs := false
	for _, n := range h.Neighbors {
		if n.ID == me {
			heardUs = true
			selectedUs = n.Code == LinkMPR
		}
	}
	if heardUs != l.symmetric {
		l.symmetric = heardUs
		o.dirty = true
	}

	if selectedUs {
		if _, ok := o.selectors[from]; !ok {
			o.ansn++
		}
		o.selectors[from] = now + neighborHold
	} else if _, ok := o.selectors[from]; ok {
		delete(o.selectors, from)
		o.ansn++
	}

	if l.symmetric {
		set := o.twoHop[from]
		if set == nil {
			set = make(map[routing.NodeID]time.Duration)
			o.twoHop[from] = set
		}
		for _, n := range h.Neighbors {
			if n.ID == me || n.Code == LinkAsym {
				continue
			}
			if _, ok := set[n.ID]; !ok {
				o.dirty = true
			}
			set[n.ID] = now + neighborHold
		}
	}
}

func (o *refOLSR) handleTC(from routing.NodeID, tc TC) {
	me := o.node.ID()
	if tc.Origin == me {
		return
	}
	now := o.node.Now()

	l := o.links[from]
	if l == nil || !l.symmetric {
		return
	}

	key := refDupKey{origin: tc.Origin, seq: tc.Seq}
	_, isDup := o.dup[key]
	o.dup[key] = now + dupHold

	if !isDup {
		// Every tuple of one originator shares its ANSN, so the first one
		// found decides.
		fresh := true
		for _, tset := range o.topology {
			if tup, ok := tset[tc.Origin]; ok {
				fresh = !seqGreater(tup.ansn, tc.ANSN)
				break
			}
		}
		if fresh {
			for dst, tset := range o.topology {
				if _, ok := tset[tc.Origin]; ok {
					delete(tset, tc.Origin)
					if len(tset) == 0 {
						delete(o.topology, dst)
					}
				}
			}
			for _, sel := range tc.Selectors {
				if sel == me {
					continue
				}
				tset := o.topology[sel]
				if tset == nil {
					tset = make(map[routing.NodeID]refTuple)
					o.topology[sel] = tset
				}
				tset[tc.Origin] = refTuple{ansn: tc.ANSN, expiry: now + topologyHold}
			}
			o.dirty = true
		}
	}

	if isDup || tc.TTL <= 1 {
		return
	}
	if _, selected := o.selectors[from]; !selected {
		return
	}
	fwd := tc
	fwd.Selectors = append([]routing.NodeID(nil), tc.Selectors...)
	fwd.TTL--
	o.node.SendControl(routing.BroadcastID, &fwd, nil)
}

func sortNodeIDs(ids []routing.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func (o *refOLSR) recomputeMPRs() {
	now := o.node.Now()
	uncovered := make(map[routing.NodeID]struct{})
	reach := make(map[routing.NodeID][]routing.NodeID) // neighbor → two-hops
	for n, l := range o.links {
		if !l.symmetric {
			continue
		}
		for th, exp := range o.twoHop[n] {
			if exp <= now || th == o.node.ID() {
				continue
			}
			if ln, direct := o.links[th]; direct && ln.symmetric {
				continue
			}
			uncovered[th] = struct{}{}
			reach[n] = append(reach[n], th)
		}
	}
	mpr := make(map[routing.NodeID]bool)
	counts := make(map[routing.NodeID]int) // two-hop → #neighbors reaching it
	for _, ths := range reach {
		for _, th := range ths {
			counts[th]++
		}
	}
	for n, ths := range reach {
		for _, th := range ths {
			if counts[th] == 1 {
				mpr[n] = true
				break
			}
		}
	}
	cover := func(n routing.NodeID) {
		for _, th := range reach[n] {
			delete(uncovered, th)
		}
	}
	for n := range mpr {
		cover(n)
	}
	for len(uncovered) > 0 {
		best := routing.NodeID(-1)
		bestCount := 0
		for n := range reach {
			if mpr[n] {
				continue
			}
			c := 0
			for _, th := range reach[n] {
				if _, ok := uncovered[th]; ok {
					c++
				}
			}
			if c > bestCount || (c == bestCount && c > 0 && (best < 0 || n < best)) {
				best = n
				bestCount = c
			}
		}
		if best < 0 || bestCount == 0 {
			break
		}
		mpr[best] = true
		cover(best)
	}
	for n, l := range o.links {
		l.isMPR = mpr[n]
	}
}

func (o *refOLSR) recompute() {
	now := o.node.Now()
	me := o.node.ID()
	o.routes = make(map[routing.NodeID]routing.NodeID)
	o.hops = make(map[routing.NodeID]int)

	type qe struct {
		node routing.NodeID
		next routing.NodeID // first hop on the path
		dist int
	}
	var queue []qe
	neigh := make([]routing.NodeID, 0, len(o.links))
	for n, l := range o.links {
		if l.symmetric {
			neigh = append(neigh, n)
		}
	}
	sortNodeIDs(neigh)
	for _, n := range neigh {
		o.routes[n] = n
		o.hops[n] = 1
		queue = append(queue, qe{node: n, next: n, dist: 1})
	}
	var targets []routing.NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		targets = targets[:0]
		for th, exp := range o.twoHop[cur.node] {
			if exp > now {
				targets = append(targets, th)
			}
		}
		for dst, tset := range o.topology {
			if tup, ok := tset[cur.node]; ok && tup.expiry > now {
				targets = append(targets, dst)
			}
		}
		sortNodeIDs(targets)
		for _, to := range targets {
			if to == me {
				continue
			}
			if _, seen := o.routes[to]; seen {
				continue
			}
			o.routes[to] = cur.next
			o.hops[to] = cur.dist + 1
			queue = append(queue, qe{node: to, next: cur.next, dist: cur.dist + 1})
		}
	}
	o.dirty = false
}

func (o *refOLSR) Originate(pkt *routing.DataPacket) { o.forward(pkt) }

func (o *refOLSR) HandleData(_ routing.NodeID, pkt *routing.DataPacket) { o.forward(pkt) }

func (o *refOLSR) forward(pkt *routing.DataPacket) {
	if o.dirty {
		o.recompute()
	}
	next, ok := o.routes[pkt.Dst]
	if !ok {
		o.node.DropData(pkt, routing.DropNoRoute)
		return
	}
	o.node.SendData(next, pkt)
}

func (o *refOLSR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Retried {
		o.node.DropData(pkt, routing.DropLinkBreak)
		return
	}
	delete(o.links, next)
	delete(o.twoHop, next)
	o.dirty = true
	o.recompute()
	if alt, ok := o.routes[pkt.Dst]; ok && alt != next {
		pkt.Retried = true
		o.node.SendData(alt, pkt)
		return
	}
	o.node.DropData(pkt, routing.DropLinkBreak)
}

func (o *refOLSR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	if o.dirty {
		o.recompute()
	}
	for dst, next := range o.routes {
		out = append(out, routing.RouteEntry{Dst: dst, Next: next, Metric: o.hops[dst], Valid: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dst < out[j].Dst })
	return out
}

func (o *refOLSR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	if o.dirty {
		o.recompute()
	}
	next, ok := o.routes[dst]
	return next, o.hops[dst], ok
}

func (o *refOLSR) MPRs() []routing.NodeID {
	var out []routing.NodeID
	for n, l := range o.links {
		if l.isMPR {
			out = append(out, n)
		}
	}
	sortNodeIDs(out)
	return out
}
