package aodv

// Model-checker integration: the deterministic full-state serialization
// the bounded model checker (internal/modelcheck) memoizes on. AODV has
// no VolatileResetter — its ordinary Reset already loses everything,
// which is the premise of the van Glabbeek loop the checker rediscovers.

import (
	"encoding/binary"
	"sort"

	"github.com/manetlab/ldr/internal/routing"
)

var _ routing.ModelStater = (*AODV)(nil)

// AppendModelState implements routing.ModelStater: own sequence number,
// the full routing table (invalid entries included — their stored
// sequence numbers gate RERR propagation and future installs), the
// RREQ duplicate cache, buffered data, active discoveries, repair and
// hello-liveness sets, and the request-ID counter, all sorted under the
// mapped identifiers. Expiry durations are included — AODV propagates
// remaining lifetimes in RREPs, so they are behaviour-relevant even at
// the model's frozen clock. The per-neighbor rate limiters are omitted
// (their buckets cannot empty within a bounded exploration).
func (a *AODV) AppendModelState(out []byte, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 'A')
	out = binary.AppendUvarint(out, uint64(a.ownSeq))

	type rrow struct {
		dst routing.NodeID
		e   *entry
	}
	rows := make([]rrow, 0, len(a.routes))
	for dst, e := range a.routes {
		rows = append(rows, rrow{mapID(dst), e})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dst < rows[j].dst })
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, r := range rows {
		e := r.e
		out = binary.AppendVarint(out, int64(r.dst))
		out = appendFlag(out, e.valid)
		out = appendFlag(out, e.haveSeq)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.hops))
		out = binary.AppendVarint(out, int64(mapID(e.next)))
		out = binary.AppendVarint(out, int64(e.expiry))
		pre := make([]routing.NodeID, 0, len(e.precursors))
		for p := range e.precursors {
			pre = append(pre, mapID(p))
		}
		sort.Slice(pre, func(i, j int) bool { return pre[i] < pre[j] })
		out = binary.AppendUvarint(out, uint64(len(pre)))
		for _, p := range pre {
			out = binary.AppendVarint(out, int64(p))
		}
	}

	type qrow struct {
		origin routing.NodeID
		id     uint32
	}
	qrows := make([]qrow, 0, len(a.reqSeen))
	for k := range a.reqSeen {
		qrows = append(qrows, qrow{mapID(k.origin), k.id})
	}
	sort.Slice(qrows, func(i, j int) bool {
		if qrows[i].origin != qrows[j].origin {
			return qrows[i].origin < qrows[j].origin
		}
		return qrows[i].id < qrows[j].id
	})
	out = binary.AppendUvarint(out, uint64(len(qrows)))
	for _, q := range qrows {
		out = binary.AppendVarint(out, int64(q.origin))
		out = binary.AppendUvarint(out, uint64(q.id))
	}

	out = a.AppendDiscoveryState(out, mapID)

	out = appendIDSet(out, a.repairing, mapID)
	heard := make([]routing.NodeID, 0, len(a.lastHeard))
	for nb := range a.lastHeard {
		heard = append(heard, mapID(nb))
	}
	sort.Slice(heard, func(i, j int) bool { return heard[i] < heard[j] })
	out = binary.AppendUvarint(out, uint64(len(heard)))
	for _, nb := range heard {
		out = binary.AppendVarint(out, int64(nb))
	}

	return out
}

func appendIDSet(out []byte, set map[routing.NodeID]bool, mapID func(routing.NodeID) routing.NodeID) []byte {
	ids := make([]routing.NodeID, 0, len(set))
	for id, on := range set {
		if on {
			ids = append(ids, mapID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.AppendVarint(out, int64(id))
	}
	return out
}

func appendFlag(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
