package aodv

// Model-checker integration: the deterministic full-state serialization
// the bounded model checker (internal/modelcheck) memoizes on. AODV has
// no VolatileResetter — its ordinary Reset already loses everything,
// which is the premise of the van Glabbeek loop the checker rediscovers.

import (
	"encoding/binary"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

var _ routing.ModelStater = (*AODV)(nil)

// AppendModelState implements routing.ModelStater: own sequence number,
// the full routing table (invalid entries included — their stored
// sequence numbers gate RERR propagation and future installs), the
// RREQ duplicate cache, buffered data, active discoveries and the
// request-ID counter, all in ascending key order, which is the order they
// are stored in. Expiry durations are included — AODV propagates
// remaining lifetimes in RREPs, so they are behaviour-relevant even at
// the model's frozen clock. The per-neighbor rate limiters are omitted
// (their buckets cannot empty within a bounded exploration).
func (a *AODV) AppendModelState(out []byte) []byte {
	out = append(out, 'A')
	out = binary.AppendUvarint(out, uint64(a.ownSeq))

	n := 0
	for i := range a.routes {
		if a.routes[i].haveSeq {
			n++
		}
	}
	out = binary.AppendUvarint(out, uint64(n))
	for dst := range a.routes {
		e := &a.routes[dst]
		if !e.haveSeq {
			continue
		}
		out = binary.AppendVarint(out, int64(dst))
		out = appendFlag(out, e.valid)
		out = appendFlag(out, e.haveSeq)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.hops))
		out = binary.AppendVarint(out, int64(e.next))
		out = binary.AppendVarint(out, int64(e.expiry))
		out = binary.AppendUvarint(out, uint64(len(e.precursors)))
		for _, p := range e.precursors {
			out = binary.AppendVarint(out, int64(p))
		}
	}

	out = a.reqSeen.AppendState(out, a.node.Now(), nil)
	return a.AppendDiscoveryState(out)
}

// modelState is an AODV instance's saved state: every field a handler or
// Reset writes. node is fixed by New; the message pools and rerrBuf are
// free lists and scratch.
type modelState struct {
	ownSeq  uint32
	routes  []entry
	reqSeen ondemand.SeenState[struct{}]
	disc    ondemand.DiscoveryState
	limits  ondemand.LimitsState
}

// copyTable makes dst a row-for-row copy of src, length included, reusing
// dst's storage and each row's precursor set.
func copyTable(dst *[]entry, src []entry) {
	*dst = routing.Resize(*dst, len(src))
	for i := range src {
		d := &(*dst)[i]
		pre := d.precursors
		*d = src[i]
		d.precursors = append(pre[:0], src[i].precursors...)
	}
}

// SaveModelState implements routing.ModelStater.
func (a *AODV) SaveModelState(store any) any {
	s, _ := store.(*modelState)
	if s == nil {
		s = new(modelState)
	}
	s.ownSeq = a.ownSeq
	copyTable(&s.routes, a.routes)
	a.reqSeen.SaveState(&s.reqSeen, nil)
	a.SaveDiscoveryState(&s.disc)
	a.SaveLimitsState(&s.limits)
	return s
}

// RestoreModelState implements routing.ModelStater.
func (a *AODV) RestoreModelState(store any) {
	s := store.(*modelState)
	a.ownSeq = s.ownSeq
	copyTable(&a.routes, s.routes)
	a.reqSeen.RestoreState(&s.reqSeen, nil)
	a.RestoreDiscoveryState(&s.disc)
	a.RestoreLimitsState(&s.limits)
}

func appendFlag(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
