package modelcheck

// Canonical state encoding. A state is (per-node protocol state,
// per-link pending multisets, origination progress, remaining fault
// budgets). Two states are identified when some automorphism of the
// topology that fixes every flow endpoint maps one onto the other; the
// canonical form is the lexicographically minimal serialization over the
// automorphism group, and the BFS memoizes its 128-bit FNV-1a hash.
//
// Per-link queues are serialized as sorted multisets: the checker can
// deliver any pending item in any order, so queue position carries no
// information and states differing only by it must collide.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing"
)

// stateKey is the 128-bit memoization key of a canonical state.
type stateKey [16]byte

// encoder canonicalizes and hashes world states, reusing its buffers
// across calls: a warm key allocates nothing. Not safe for concurrent
// use.
type encoder struct {
	n      int
	autos  [][]int                               // automorphism group, identity included
	mapIDs []func(routing.NodeID) routing.NodeID // autos as relabelings, built once
	inv    []int                                 // scratch: inverse permutation
	buf    []byte                                // candidate serialization under one automorphism
	best   []byte                                // minimal serialization so far
	rows   []linkRow                             // scratch: the non-empty links
	items  []byte                                // scratch: one link's items, back to back
	spans  []span                                // scratch: where each item sits in items
	dests  []rerrDest                            // scratch: one RERR's destinations
	hash   hash.Hash
	sum    stateKey
}

// linkRow is a non-empty directed link with its relabeled endpoints.
type linkRow struct {
	mf, mt   int
	from, to int
}

type span struct{ lo, hi int }

type rerrDest struct {
	dst routing.NodeID
	seq uint64
}

func newEncoder(n int, autos [][]int) *encoder {
	e := &encoder{n: n, autos: autos, inv: make([]int, n), hash: fnv.New128a()}
	for _, perm := range autos {
		e.mapIDs = append(e.mapIDs, func(id routing.NodeID) routing.NodeID {
			if int(id) < 0 || int(id) >= n {
				return id // BroadcastID and other sentinels pass through
			}
			return routing.NodeID(perm[id])
		})
	}
	return e
}

// key returns the canonical hash of w given the remaining budgets
// (budgets gate which actions are enabled, so two protocol-identical
// states with different allowances are distinct).
func (e *encoder) key(w *world, b budgets) stateKey {
	e.best = e.best[:0]
	for ai := range e.autos {
		e.buf = e.encodeUnder(e.buf[:0], w, b, ai)
		if ai == 0 || bytes.Compare(e.buf, e.best) < 0 {
			e.best = append(e.best[:0], e.buf...)
		}
	}
	e.hash.Reset()
	e.hash.Write(e.best)
	e.hash.Sum(e.sum[:0])
	return e.sum
}

// encodeUnder serializes w relabeled by the ai-th automorphism.
func (e *encoder) encodeUnder(out []byte, w *world, b budgets, ai int) []byte {
	n, perm, mapID := e.n, e.autos[ai], e.mapIDs[ai]
	for i, p := range perm {
		e.inv[p] = i
	}

	// Context: origination progress and remaining budgets.
	out = binary.AppendUvarint(out, uint64(w.nextFlow))
	out = binary.AppendUvarint(out, uint64(b.drops))
	out = binary.AppendUvarint(out, uint64(b.dups))
	out = binary.AppendUvarint(out, uint64(b.resets))
	out = binary.AppendUvarint(out, uint64(b.vresets))

	// Node states, in mapped-identifier order: position p holds the state
	// of the node that perm maps to p.
	for p := 0; p < n; p++ {
		out = w.staters[e.inv[p]].AppendModelState(out, mapID)
	}

	// Pending multisets, links sorted by mapped (from, to), items sorted
	// by their serialized form.
	e.rows = e.rows[:0]
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if len(w.pending[from*n+to]) > 0 {
				e.rows = append(e.rows, linkRow{mf: perm[from], mt: perm[to], from: from, to: to})
			}
		}
	}
	slices.SortFunc(e.rows, func(a, b linkRow) int {
		return cmp.Or(cmp.Compare(a.mf, b.mf), cmp.Compare(a.mt, b.mt))
	})
	out = binary.AppendUvarint(out, uint64(len(e.rows)))
	for _, r := range e.rows {
		out = binary.AppendUvarint(out, uint64(r.mf))
		out = binary.AppendUvarint(out, uint64(r.mt))
		e.items, e.spans = e.items[:0], e.spans[:0]
		for _, m := range w.pending[r.from*n+r.to] {
			lo := len(e.items)
			e.items = e.encodeItem(e.items, m, mapID)
			e.spans = append(e.spans, span{lo, len(e.items)})
		}
		slices.SortFunc(e.spans, func(a, b span) int {
			return bytes.Compare(e.items[a.lo:a.hi], e.items[b.lo:b.hi])
		})
		out = binary.AppendUvarint(out, uint64(len(e.spans)))
		for _, sp := range e.spans {
			out = append(out, e.items[sp.lo:sp.hi]...)
		}
	}
	return out
}

// encodeItem serializes one pending link item under the relabeling.
// Every behaviour-relevant field of every message type the two modeled
// protocols emit is covered; an unknown type panics rather than silently
// aliasing distinct states.
func (e *encoder) encodeItem(out []byte, m linkMsg, mapID func(routing.NodeID) routing.NodeID) []byte {
	if m.pkt != nil {
		p := m.pkt
		out = append(out, 0)
		out = binary.AppendVarint(out, int64(mapID(p.Src)))
		out = binary.AppendVarint(out, int64(mapID(p.Dst)))
		out = binary.AppendUvarint(out, p.ID)
		out = binary.AppendVarint(out, int64(p.TTL))
		out = binary.AppendVarint(out, int64(p.Bytes))
		out = binary.AppendVarint(out, int64(p.SRIndex))
		out = binary.AppendVarint(out, int64(p.Salvaged))
		out = binary.AppendUvarint(out, uint64(len(p.SourceRoute)))
		for _, h := range p.SourceRoute {
			out = binary.AppendVarint(out, int64(mapID(h)))
		}
		return out
	}
	switch q := m.msg.(type) {
	case *core.RREQ:
		return encodeCoreRREQ(out, *q, mapID)
	case core.RREQ:
		return encodeCoreRREQ(out, q, mapID)
	case *core.RREP:
		return encodeCoreRREP(out, *q, mapID)
	case core.RREP:
		return encodeCoreRREP(out, q, mapID)
	case *core.RERR:
		return e.encodeCoreRERR(out, *q, mapID)
	case core.RERR:
		return e.encodeCoreRERR(out, q, mapID)
	case *aodv.RREQ:
		return encodeAODVRREQ(out, *q, mapID)
	case aodv.RREQ:
		return encodeAODVRREQ(out, q, mapID)
	case *aodv.RREP:
		return encodeAODVRREP(out, *q, mapID)
	case aodv.RREP:
		return encodeAODVRREP(out, q, mapID)
	case *aodv.RERR:
		return e.encodeAODVRERR(out, *q, mapID)
	case aodv.RERR:
		return e.encodeAODVRERR(out, q, mapID)
	}
	panic(fmt.Sprintf("modelcheck: cannot encode message type %T", m.msg))
}

func encodeCoreRREQ(out []byte, q core.RREQ, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 1)
	out = binary.AppendVarint(out, int64(mapID(q.Dst)))
	out = binary.AppendUvarint(out, uint64(q.DstSeq))
	out = encFlag(out, q.HaveDstSeq)
	out = binary.AppendVarint(out, int64(mapID(q.Origin)))
	out = binary.AppendUvarint(out, uint64(q.OriginSeq))
	out = binary.AppendUvarint(out, uint64(q.ReqID))
	out = binary.AppendVarint(out, int64(q.FD))
	out = binary.AppendVarint(out, int64(q.AnsDist))
	out = binary.AppendVarint(out, int64(q.Dist))
	out = binary.AppendVarint(out, int64(q.TTL))
	out = encFlag(out, q.T)
	out = encFlag(out, q.N)
	out = encFlag(out, q.D)
	return out
}

func encodeCoreRREP(out []byte, p core.RREP, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 2)
	out = binary.AppendVarint(out, int64(mapID(p.Dst)))
	out = binary.AppendUvarint(out, uint64(p.DstSeq))
	out = binary.AppendVarint(out, int64(mapID(p.Origin)))
	out = binary.AppendUvarint(out, uint64(p.ReqID))
	out = binary.AppendVarint(out, int64(p.Dist))
	out = binary.AppendVarint(out, int64(p.Lifetime))
	out = encFlag(out, p.N)
	return out
}

func (e *encoder) encodeCoreRERR(out []byte, r core.RERR, mapID func(routing.NodeID) routing.NodeID) []byte {
	e.dests = e.dests[:0]
	for _, u := range r.Unreachable {
		e.dests = append(e.dests, rerrDest{mapID(u.Dst), uint64(u.Seq)})
	}
	return e.appendDests(append(out, 3))
}

// appendDests emits e.dests as a counted list in ascending destination
// order.
func (e *encoder) appendDests(out []byte) []byte {
	slices.SortFunc(e.dests, func(a, b rerrDest) int { return cmp.Compare(a.dst, b.dst) })
	out = binary.AppendUvarint(out, uint64(len(e.dests)))
	for _, d := range e.dests {
		out = binary.AppendVarint(out, int64(d.dst))
		out = binary.AppendUvarint(out, d.seq)
	}
	return out
}

func encodeAODVRREQ(out []byte, q aodv.RREQ, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 4)
	out = binary.AppendVarint(out, int64(mapID(q.Dst)))
	out = binary.AppendUvarint(out, uint64(q.DstSeq))
	out = encFlag(out, q.UnknownSeq)
	out = binary.AppendVarint(out, int64(mapID(q.Origin)))
	out = binary.AppendUvarint(out, uint64(q.OriginSeq))
	out = binary.AppendUvarint(out, uint64(q.ReqID))
	out = binary.AppendVarint(out, int64(q.HopCount))
	out = binary.AppendVarint(out, int64(q.TTL))
	return out
}

func encodeAODVRREP(out []byte, p aodv.RREP, mapID func(routing.NodeID) routing.NodeID) []byte {
	out = append(out, 5)
	out = binary.AppendVarint(out, int64(mapID(p.Dst)))
	out = binary.AppendUvarint(out, uint64(p.DstSeq))
	out = binary.AppendVarint(out, int64(mapID(p.Origin)))
	out = binary.AppendVarint(out, int64(p.HopCount))
	out = binary.AppendVarint(out, int64(p.Lifetime))
	return out
}

func (e *encoder) encodeAODVRERR(out []byte, r aodv.RERR, mapID func(routing.NodeID) routing.NodeID) []byte {
	e.dests = e.dests[:0]
	for _, u := range r.Unreachable {
		e.dests = append(e.dests, rerrDest{mapID(u.Dst), uint64(u.Seq)})
	}
	return e.appendDests(append(out, 6))
}

func encFlag(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
