package core

// Model-checker integration: a deterministic serialization of the entire
// protocol-relevant state, and the volatile-reset variant that wipes the
// §5 stable store. See routing.ModelStater / routing.VolatileResetter and
// internal/modelcheck.

import (
	"encoding/binary"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

var (
	_ routing.ModelStater      = (*LDR)(nil)
	_ routing.VolatileResetter = (*LDR)(nil)
)

// ResetVolatile implements routing.VolatileResetter: a crash WITHOUT the
// stable storage §5 prescribes. Reset's persistence of the own sequence
// number and the per-destination (sn, fd) labels is what keeps
// post-reboot acceptances ordered; wiping them puts LDR in the volatile
// regime in which AODV loops, and this hook lets the model checker
// explore that regime directly. There LDR loses the ordering criterion:
// on the 4-node graph n4-4, one volatile crash of a relay whose
// downstream neighbor routes through it at distance 2 lets the relay
// re-learn the route from another neighbor's request at that same
// distance and sequence number, so the neighbor's successor is no longer
// below it — a 6-step schedule among 961 states (`ldrcheck -protocol ldr
// -topology n4-4 -vresets 1`, pinned in `make modelcheck`). On the 3-node
// line the checker finds no violation within its budgets. The request-ID
// counter survives for the same simulation-artifact reason it survives
// Reset.
func (l *LDR) ResetVolatile() {
	l.Reset()
	clear(l.routes)
	l.ownSeq = NewSeqno(1, 0)
}

// AppendModelState implements routing.ModelStater. Everything that can
// influence future protocol behaviour is emitted, keyed state in
// ascending key order, which is the order it is stored in: own sequence
// number, the full routing table (invalid entries included — their labels
// persist and gate NDC), the engaged-computation cache, buffered data,
// active discoveries, and the request-ID counter. Expiry times are
// included verbatim: the model runs at a frozen clock, so they are
// deterministic durations, and AODV-style lifetime propagation makes them
// behaviour-relevant in general. The per-neighbor rate limiters are
// deliberately omitted (their buckets cannot empty within any bounded
// exploration's horizon).
func (l *LDR) AppendModelState(out []byte) []byte {
	out = append(out, 'L')
	out = binary.AppendUvarint(out, uint64(l.ownSeq))

	n := 0
	for i := range l.routes {
		if l.routes[i].known {
			n++
		}
	}
	out = binary.AppendUvarint(out, uint64(n))
	for dst := range l.routes {
		e := &l.routes[dst]
		if !e.known {
			continue
		}
		out = binary.AppendVarint(out, int64(dst))
		out = appendBool(out, e.valid)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.dist))
		out = binary.AppendVarint(out, int64(e.fd))
		out = binary.AppendVarint(out, int64(e.next))
		out = binary.AppendVarint(out, int64(e.expiry))
	}

	out = l.reqSeen.AppendState(out, l.node.Now(), appendReqState)
	return l.AppendDiscoveryState(out)
}

func appendReqState(out []byte, st *reqState) []byte {
	out = binary.AppendVarint(out, int64(st.lastHop))
	out = appendBool(out, st.relayed)
	out = appendBool(out, st.unicastFwd)
	out = appendBool(out, st.replied)
	out = binary.AppendUvarint(out, uint64(st.relayedSeq))
	return binary.AppendVarint(out, int64(st.relayedDist))
}

// modelState is an LDR instance's saved state: every field a handler,
// Reset, ResetVolatile or Start writes. node and cfg are fixed by New;
// the message pools and rerrBuf are free lists and scratch.
type modelState struct {
	ownSeq  Seqno
	routes  table
	reqSeen ondemand.SeenState[reqState]
	disc    ondemand.DiscoveryState
	limits  ondemand.LimitsState
}

// copyTable makes dst a copy of src, length included, reusing dst's
// storage.
func copyTable(dst *table, src table) {
	*dst = routing.Resize(*dst, len(src))
	copy(*dst, src)
}

// SaveModelState implements routing.ModelStater.
func (l *LDR) SaveModelState(store any) any {
	s, _ := store.(*modelState)
	if s == nil {
		s = new(modelState)
	}
	s.ownSeq = l.ownSeq
	copyTable(&s.routes, l.routes)
	l.reqSeen.SaveState(&s.reqSeen)
	l.SaveDiscoveryState(&s.disc)
	l.SaveLimitsState(&s.limits)
	return s
}

// RestoreModelState implements routing.ModelStater.
func (l *LDR) RestoreModelState(store any) {
	s := store.(*modelState)
	l.ownSeq = s.ownSeq
	copyTable(&l.routes, s.routes)
	l.reqSeen.RestoreState(&s.reqSeen)
	l.RestoreDiscoveryState(&s.disc)
	l.RestoreLimitsState(&s.limits)
}

func appendBool(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
