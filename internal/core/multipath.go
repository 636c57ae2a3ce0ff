package core

import (
	"time"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

// Multipath support: the labeled-distance invariant admits more than one
// loop-free successor per destination. Any neighbor whose advertised
// distance is strictly below the node's feasible distance satisfies NDC,
// so it can serve as an instant fallback when the primary successor's
// link breaks — no rediscovery, no coordination, and loop-freedom is
// preserved by exactly the same argument as for the primary (this is the
// direction explored by the authors' follow-up work on labeled-distance
// multipath routing).
//
// Alternates are recorded opportunistically from advertisements that pass
// NDC but lose the primary-selection stability rule, and are promoted on
// link failure if their label still beats the entry's feasible distance.

const (
	// maxAltSuccessors is how many alternates an entry keeps.
	maxAltSuccessors = 2
	// altLifetime bounds how long a recorded alternate may be promoted:
	// loop-freedom never decays (the alternate's advertised distance was
	// below fd, and fd is non-increasing at a fixed sequence number), but
	// an old alternate is increasingly likely to have lost its own route.
	altLifetime = 10 * time.Second
)

// altSuccessor is a recorded fallback next hop.
type altSuccessor struct {
	next    routing.NodeID
	advDist int           // the distance the neighbor advertised
	heard   time.Duration // when the advertisement was heard
}

// rememberAlt records via as an alternate successor for e if its
// advertisement is loop-free (advDist < fd) at the entry's current
// sequence number. The best maxAltSuccessors alternates by advertised
// distance are retained.
func (e *entry) rememberAlt(via routing.NodeID, advSeq Seqno, advDist int, now time.Duration) {
	if via == e.next {
		return
	}
	if advSeq != e.seq || advDist >= e.fd {
		return
	}
	for i := range e.alts {
		if e.alts[i].next == via {
			e.alts[i].advDist = advDist
			e.alts[i].heard = now
			return
		}
	}
	a := altSuccessor{next: via, advDist: advDist, heard: now}
	if len(e.alts) < maxAltSuccessors {
		e.alts = append(e.alts, a)
		return
	}
	// Replace the worst recorded alternate if this one is better.
	worst := 0
	for i := range e.alts {
		if e.alts[i].advDist > e.alts[worst].advDist {
			worst = i
		}
	}
	if advDist < e.alts[worst].advDist {
		e.alts[worst] = a
	}
}

// dropAlt forgets an alternate (its link broke or it reported an error).
func (e *entry) dropAlt(via routing.NodeID) {
	for i := range e.alts {
		if e.alts[i].next == via {
			e.alts = append(e.alts[:i], e.alts[i+1:]...)
			return
		}
	}
}

// promoteAlt switches the entry to its best still-feasible alternate,
// returning false if none qualifies. Promotion re-applies NDC against the
// entry's own feasible distance, so the ordering criterion survives: the
// new successor's advertised distance is below fd, exactly as if the
// advertisement had just been accepted.
func (e *entry) promoteAlt(now time.Duration) bool {
	best := -1
	for i, a := range e.alts {
		if now-a.heard > altLifetime || a.advDist >= e.fd {
			continue
		}
		if best < 0 || a.advDist < e.alts[best].advDist {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	a := e.alts[best]
	e.alts = append(e.alts[:best], e.alts[best+1:]...)
	e.next = a.next
	d := a.advDist + 1
	e.dist = d
	if d < e.fd {
		e.fd = d
	}
	e.valid = true
	e.expiry = now + ondemand.ActiveRouteTimeout
	return true
}

// AltSuccessors exposes the current alternates for dst (tests, examples).
func (l *LDR) AltSuccessors(dst routing.NodeID) []routing.NodeID {
	e := l.routes.get(dst)
	if e == nil {
		return nil
	}
	out := make([]routing.NodeID, 0, len(e.alts))
	for _, a := range e.alts {
		out = append(out, a.next)
	}
	return out
}
