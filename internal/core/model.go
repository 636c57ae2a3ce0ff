package core

// Model-checker integration: a deterministic serialization of the entire
// protocol-relevant state, and the volatile-reset variant that wipes the
// §5 stable store. See routing.ModelStater / routing.VolatileResetter and
// internal/modelcheck.

import (
	"encoding/binary"
	"sort"

	"github.com/manetlab/ldr/internal/routing"
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
// explore that regime directly. (Within the budgets explored so far the
// request-as-error discipline still prevents the van Glabbeek
// construction even without stable storage — the stale-route reply that
// seeds AODV's loop is answered with an RERR leg here.) The request-ID
// counter survives for the same simulation-artifact reason it survives
// Reset.
func (l *LDR) ResetVolatile() {
	l.Reset()
	l.routes = make(table)
	l.ownSeq = NewSeqno(1, 0)
}

// AppendModelState implements routing.ModelStater. Everything that can
// influence future protocol behaviour is emitted, in sorted order under
// the mapped identifiers: own sequence number, the full routing table
// (invalid entries included — their labels persist and gate NDC), the
// engaged-computation cache, buffered data, active discoveries, and the
// request-ID counter. Expiry times are included verbatim: the model runs
// at a frozen clock, so they are deterministic durations, and AODV-style
// lifetime propagation makes them behaviour-relevant in general. The
// per-neighbor rate limiters are deliberately omitted (their buckets
// cannot empty within any bounded exploration's horizon).
func (l *LDR) AppendModelState(out []byte, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 'L')
	out = binary.AppendUvarint(out, uint64(l.ownSeq))

	type rrow struct {
		dst routing.NodeID
		e   *entry
	}
	rows := make([]rrow, 0, len(l.routes))
	for dst, e := range l.routes {
		rows = append(rows, rrow{mapID(dst), e})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dst < rows[j].dst })
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, r := range rows {
		e := r.e
		out = binary.AppendVarint(out, int64(r.dst))
		out = appendBool(out, e.valid)
		out = binary.AppendUvarint(out, uint64(e.seq))
		out = binary.AppendVarint(out, int64(e.dist))
		out = binary.AppendVarint(out, int64(e.fd))
		out = binary.AppendVarint(out, int64(mapID(e.next)))
		out = binary.AppendVarint(out, int64(e.expiry))
		alts := make([]altSuccessor, len(e.alts))
		for i, a := range e.alts {
			alts[i] = altSuccessor{next: mapID(a.next), advDist: a.advDist, heard: a.heard}
		}
		sort.Slice(alts, func(i, j int) bool {
			if alts[i].next != alts[j].next {
				return alts[i].next < alts[j].next
			}
			return alts[i].advDist < alts[j].advDist
		})
		out = binary.AppendUvarint(out, uint64(len(alts)))
		for _, a := range alts {
			out = binary.AppendVarint(out, int64(a.next))
			out = binary.AppendVarint(out, int64(a.advDist))
			out = binary.AppendVarint(out, int64(a.heard))
		}
	}

	type qrow struct {
		origin routing.NodeID
		id     uint32
		st     *reqState
	}
	qrows := make([]qrow, 0, len(l.reqSeen))
	for k, st := range l.reqSeen {
		qrows = append(qrows, qrow{mapID(k.origin), k.id, st})
	}
	sort.Slice(qrows, func(i, j int) bool {
		if qrows[i].origin != qrows[j].origin {
			return qrows[i].origin < qrows[j].origin
		}
		return qrows[i].id < qrows[j].id
	})
	out = binary.AppendUvarint(out, uint64(len(qrows)))
	for _, q := range qrows {
		st := q.st
		out = binary.AppendVarint(out, int64(q.origin))
		out = binary.AppendUvarint(out, uint64(q.id))
		out = binary.AppendVarint(out, int64(mapID(st.lastHop)))
		out = appendBool(out, st.relayed)
		out = appendBool(out, st.unicastFwd)
		out = appendBool(out, st.replied)
		out = binary.AppendUvarint(out, uint64(st.relayedSeq))
		out = binary.AppendVarint(out, int64(st.relayedDist))
		hops := make([]routing.NodeID, len(st.altHops))
		for i, h := range st.altHops {
			hops[i] = mapID(h)
		}
		sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
		out = binary.AppendUvarint(out, uint64(len(hops)))
		for _, h := range hops {
			out = binary.AppendVarint(out, int64(h))
		}
	}

	return l.AppendDiscoveryState(out, mapID)
}

func appendBool(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
