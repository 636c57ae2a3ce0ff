package aodv

// Model-checker integration: the deterministic full-state serialization
// the bounded model checker (internal/modelcheck) memoizes on. AODV has
// no VolatileResetter — its ordinary Reset already loses everything,
// which is the premise of the van Glabbeek loop the checker rediscovers.

import (
	"cmp"
	"encoding/binary"
	"slices"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
)

var _ routing.ModelStater = (*AODV)(nil)

// AppendModelState implements routing.ModelStater: own sequence number,
// the full routing table (invalid entries included — their stored
// sequence numbers gate RERR propagation and future installs), the
// RREQ duplicate cache, buffered data, active discoveries and the
// request-ID counter, all in ascending key order. Expiry durations are
// included — AODV propagates remaining lifetimes in RREPs, so they are
// behaviour-relevant even at the model's frozen clock. The per-neighbor
// rate limiters are omitted (their buckets cannot empty within a bounded
// exploration).
func (a *AODV) AppendModelState(out []byte) []byte {
	sc := &a.enc
	out = append(out, 'A')
	out = binary.AppendUvarint(out, uint64(a.ownSeq))

	sc.routes = sc.routes[:0]
	for dst, e := range a.routes {
		sc.routes = append(sc.routes, routeRow{dst, e})
	}
	slices.SortFunc(sc.routes, func(x, y routeRow) int { return cmp.Compare(x.dst, y.dst) })
	out = binary.AppendUvarint(out, uint64(len(sc.routes)))
	for _, r := range sc.routes {
		e := r.e
		out = binary.AppendVarint(out, int64(r.dst))
		out = appendFlag(out, e.valid)
		out = appendFlag(out, e.haveSeq)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.hops))
		out = binary.AppendVarint(out, int64(e.next))
		out = binary.AppendVarint(out, int64(e.expiry))
		sc.ids = sc.ids[:0]
		for p := range e.precursors {
			sc.ids = append(sc.ids, p)
		}
		out = appendSortedIDs(out, sc.ids)
	}

	sc.reqs = sc.reqs[:0]
	a.reqSeen.Each(a.node.Now(), func(k ondemand.ReqKey, _ *struct{}) {
		sc.reqs = append(sc.reqs, k)
	})
	slices.SortFunc(sc.reqs, ondemand.CompareReqKey)
	out = binary.AppendUvarint(out, uint64(len(sc.reqs)))
	for _, q := range sc.reqs {
		out = binary.AppendVarint(out, int64(q.Origin))
		out = binary.AppendUvarint(out, uint64(q.ID))
	}

	return a.AppendDiscoveryState(out)
}

// appendSortedIDs sorts ids in place and emits them as a counted set.
func appendSortedIDs(out []byte, ids []routing.NodeID) []byte {
	slices.Sort(ids)
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.AppendVarint(out, int64(id))
	}
	return out
}

// encScratch is AppendModelState's working storage, kept on the instance
// so that encoding a state allocates nothing.
type encScratch struct {
	routes []routeRow
	reqs   []ondemand.ReqKey
	ids    []routing.NodeID
}

type routeRow struct {
	dst routing.NodeID
	e   *entry
}

// modelState is an AODV instance's saved state: every field a handler or
// Reset writes. node is fixed by New; the message pools, rerrBuf and enc
// are free lists and scratch.
type modelState struct {
	ownSeq  uint32
	routes  []routing.Saved[routing.NodeID, entry]
	reqSeen ondemand.SeenState[struct{}]
	disc    ondemand.DiscoveryState
	limits  ondemand.LimitsState
}

// copyEntry deep-copies a table row, reusing dst's precursor set.
func copyEntry(dst, src *entry) {
	pre := dst.precursors
	*dst = *src
	if pre == nil {
		pre = make(map[routing.NodeID]struct{}, len(src.precursors))
	}
	clear(pre)
	for p := range src.precursors {
		pre[p] = struct{}{}
	}
	dst.precursors = pre
}

// SaveModelState implements routing.ModelStater.
func (a *AODV) SaveModelState(store any) any {
	s, _ := store.(*modelState)
	if s == nil {
		s = new(modelState)
	}
	s.ownSeq = a.ownSeq
	s.routes = routing.SavePtrMap(s.routes, a.routes, cmp.Compare[routing.NodeID], copyEntry)
	a.reqSeen.SaveState(&s.reqSeen, nil)
	a.SaveDiscoveryState(&s.disc)
	a.SaveLimitsState(&s.limits)
	return s
}

// RestoreModelState implements routing.ModelStater.
func (a *AODV) RestoreModelState(store any) {
	s := store.(*modelState)
	a.ownSeq = s.ownSeq
	routing.RestorePtrMap(a.routes, s.routes, cmp.Compare[routing.NodeID], copyEntry)
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
