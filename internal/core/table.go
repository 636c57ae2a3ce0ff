package core

import (
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// Infinity is the distance representing "unreachable". It is large enough
// that no real path approaches it, yet small enough that adding link costs
// cannot overflow.
const Infinity = 1 << 24

// entry is one LDR routing-table row (paper Table 1: sn, d, fd, successor).
// Invalidated entries keep their sequence number and feasible distance —
// the invariants outlive the route, which is what makes reissuing RREQs
// with prior state safe.
type entry struct {
	seq    Seqno
	dist   int
	fd     int
	next   routing.NodeID
	expiry time.Duration // lifetime bound while valid
	valid  bool
	known  bool // the slot holds an entry
}

// table holds one slot per node of the network, indexed by destination
// id and allocated at the first entry, so walking it visits destinations
// in ascending order. A node never holds an entry for itself (its
// distance to itself is zero and its own sequence number is tracked
// separately).
type table []entry

// get returns the entry for dst, or nil.
func (t table) get(dst routing.NodeID) *entry {
	if uint(dst) >= uint(len(t)) || !t[dst].known {
		return nil
	}
	return &t[dst]
}

// active reports whether the entry is usable at time now: valid and not
// past its lifetime.
func (e *entry) active(now time.Duration) bool {
	return e != nil && e.valid && e.expiry > now
}

// refresh extends the entry's lifetime; routes in use stay alive.
func (e *entry) refresh(now, lifetime time.Duration) {
	if exp := now + lifetime; exp > e.expiry {
		e.expiry = exp
	}
}

// invalidate marks the route unusable while retaining sn, d, and fd.
func (e *entry) invalidate() { e.valid = false }

// ndc evaluates the Numbered Distance Condition for an advertisement
// (advSeq, advDist) received at a node holding entry e:
//
//	sn* > sn                 (1)
//	sn* = sn  ∧  d* < fd     (2)
//
// A nil entry means "no information", which always passes.
func (e *entry) ndc(advSeq Seqno, advDist int) bool {
	if e == nil {
		return true
	}
	if advSeq > e.seq {
		return true
	}
	return advSeq == e.seq && advDist < e.fd
}

// update applies Procedure 3 (Set Route) for an accepted advertisement:
//
//	sn  ← sn*
//	d   ← d* + lc
//	fd  ← d          if sn < sn*   (sequence number reset)
//	fd  ← min(fd, d) if sn = sn*
//
// The caller must have verified NDC first. linkCost is 1 for hop counts.
func (e *entry) update(advSeq Seqno, advDist int, via routing.NodeID, linkCost int, now, lifetime time.Duration) {
	d := advDist + linkCost
	if advSeq > e.seq {
		e.fd = d
	} else if d < e.fd {
		e.fd = d
	}
	e.seq = advSeq
	e.dist = d
	e.next = via
	e.valid = true
	e.expiry = now + lifetime
}

// newEntry is a first-contact route (the "no information" NDC case).
func newEntry(advSeq Seqno, advDist int, via routing.NodeID, linkCost int, now, lifetime time.Duration) entry {
	d := advDist + linkCost
	return entry{
		known:  true,
		seq:    advSeq,
		dist:   d,
		fd:     d,
		next:   via,
		valid:  true,
		expiry: now + lifetime,
	}
}
