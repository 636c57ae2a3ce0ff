package modelcheck

// State keys. A state is (per-node protocol state, per-link pending
// multisets, origination progress, remaining fault budgets); it has one
// serialization (refEncode, reference_test.go), and the search memoizes a
// 128-bit key of it. The key is not taken over the serialization but
// composed from hashes of its parts, each taken once, in the style of
// incremental state hashing (Nguyen & Ruys, "Incremental Hashing for
// SPIN", SPIN 2008):
//
//   - a pending item's hash is hashKey of its encodeItem bytes, taken when
//     the world queues the item (world.hashed) and carried with it into a
//     saved record, back out of one and into a duplicate;
//   - a node's hash is hashKey of its AppendModelState bytes, cached on the
//     saved record (snapshot.go), so a successor's key encodes the one node
//     the action wrote and copies the rest;
//   - a link's items are summed lane by lane. Addition commutes, so the sum
//     hashes the link's multiset: the checker can deliver any pending item
//     in any order, so queue position carries no information, and states
//     differing only by it must collide.
//
// The key is hashKey over the flow cursor and budgets, the n node hashes
// in id order and, for each non-empty link, its index, its count and its
// sum. Two states share a key iff their serializations are equal, up to a
// collision of 128-bit hashes (refKey, TestKeysDoNotCollide).
//
// An item's hash stays valid because what it hashes cannot change while
// the item is queued: control messages are read-only once sent, and a
// queued data packet is a copy the environment owns.
// TestSnapshotEqualsReplay checks every queued item's hash at every step.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/routing"
)

// stateKey is the 128-bit memoization key of a state, and the hash of a
// node's or a pending item's serialization.
type stateKey [2]uint64

// encoder holds the scratch serializations and keys are built in, reused
// across calls: a warm key allocates nothing. Each world has one. Not safe
// for concurrent use.
type encoder struct {
	buf   []byte     // one node's or one item's serialization
	parts []byte     // what a state's key is the hash of
	dests []rerrDest // one RERR's destinations
}

type rerrDest struct {
	dst routing.NodeID
	seq uint64
}

// key returns the key of the world's present state given the remaining
// budgets (budgets gate which actions are enabled, so two
// protocol-identical states with different allowances are distinct).
func (c *cursor) key(b budgets) stateKey {
	w, e := c.w, &c.w.enc
	out := appendContext(e.parts[:0], w.nextFlow, b)

	// Node hashes in identifier order. A node written since the sought
	// state was saved is hashed as it stands; any other still is what its
	// saved record holds, so its hash is taken once per record.
	base := c.base()
	for i, st := range w.staters {
		if w.dirtyNodes&(1<<i) != 0 {
			out = appendKey(out, e.hashNode(st))
			continue
		}
		r := base.nodes[i]
		if !r.hashOK {
			r.hash, r.hashOK = e.hashNode(st), true
		}
		out = appendKey(out, r.hash)
	}

	// Pending multisets, links in ascending (from, to).
	for li, q := range w.pending {
		if len(q) == 0 {
			continue
		}
		var sum stateKey
		for _, m := range q {
			sum[0] += m.hash[0]
			sum[1] += m.hash[1]
		}
		out = binary.AppendUvarint(out, uint64(li))
		out = binary.AppendUvarint(out, uint64(len(q)))
		out = appendKey(out, sum)
	}
	e.parts = out
	return hashKey(out)
}

// hashNode returns the hash of a node's AppendModelState bytes.
func (e *encoder) hashNode(st routing.ModelStater) stateKey {
	e.buf = st.AppendModelState(e.buf[:0])
	return hashKey(e.buf)
}

// appendContext appends what a state holds besides its nodes and links:
// origination progress and the remaining budgets.
func appendContext(out []byte, nextFlow int, b budgets) []byte {
	out = binary.AppendUvarint(out, uint64(nextFlow))
	out = binary.AppendUvarint(out, uint64(b.drops))
	out = binary.AppendUvarint(out, uint64(b.dups))
	out = binary.AppendUvarint(out, uint64(b.resets))
	return binary.AppendUvarint(out, uint64(b.vresets))
}

// appendKey appends k's sixteen bytes.
func appendKey(out []byte, k stateKey) []byte {
	out = binary.LittleEndian.AppendUint64(out, k[0])
	return binary.LittleEndian.AppendUint64(out, k[1])
}

// hashKey hashes a serialization to its 128-bit key, eight bytes at a
// time through two 64-bit lanes that share nothing but the input:
// each lane is the xxHash64 accumulator round (multiply, rotate, multiply)
// under its own pair of odd constants and its own rotation, closed by the
// MurmurHash3 finalizer over the lane and the length. The constants are
// fixed, so a key is a function of the bytes alone, in every process: a
// visited set, or a witness search resumed from one, can be compared
// across runs.
func hashKey(b []byte) stateKey {
	const (
		p1, p2 = 0x9e3779b185ebca87, 0xc2b2ae3d27d4eb4f // xxHash64's primes 1 and 2
		q1, q2 = 0x87c37b91114253d5, 0x4cf5ad432745937f // MurmurHash3 x64's c1 and c2
	)
	h1, h2 := uint64(p1), uint64(q1)
	n := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		v := binary.LittleEndian.Uint64(b)
		h1 = bits.RotateLeft64(h1+v*p2, 31) * p1
		h2 = bits.RotateLeft64(h2+v*q2, 29) * q1
	}
	if len(b) > 0 {
		// The tail, zero-padded to a word; the length below tells a padded
		// tail from real zero bytes.
		var tail [8]byte
		copy(tail[:], b)
		v := binary.LittleEndian.Uint64(tail[:])
		h1 = bits.RotateLeft64(h1+v*p2, 31) * p1
		h2 = bits.RotateLeft64(h2+v*q2, 29) * q1
	}
	return stateKey{fmix64(h1 ^ n), fmix64(h2 ^ n*q2)}
}

// fmix64 is MurmurHash3's 64-bit finalizer: every input bit reaches every
// output bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// encodeItem serializes one pending link item. Every behaviour-relevant
// field of every message type the two modeled protocols emit is covered;
// an unknown type panics rather than silently aliasing distinct states.
func (e *encoder) encodeItem(out []byte, m linkMsg) []byte {
	if m.pkt != nil {
		p := m.pkt
		out = append(out, 0)
		out = binary.AppendVarint(out, int64(p.Src))
		out = binary.AppendVarint(out, int64(p.Dst))
		out = binary.AppendUvarint(out, p.ID)
		out = binary.AppendVarint(out, int64(p.TTL))
		out = binary.AppendVarint(out, int64(p.Bytes))
		out = binary.AppendVarint(out, int64(p.SRIndex))
		out = binary.AppendVarint(out, int64(p.Salvaged))
		out = binary.AppendUvarint(out, uint64(len(p.SourceRoute)))
		for _, h := range p.SourceRoute {
			out = binary.AppendVarint(out, int64(h))
		}
		return out
	}
	switch q := m.msg.(type) {
	case *core.RREQ:
		return encodeCoreRREQ(out, q)
	case *core.RREP:
		return encodeCoreRREP(out, q)
	case *core.RERR:
		return e.encodeCoreRERR(out, q)
	case *aodv.RREQ:
		return encodeAODVRREQ(out, q)
	case *aodv.RREP:
		return encodeAODVRREP(out, q)
	case *aodv.RERR:
		return e.encodeAODVRERR(out, q)
	}
	panic(fmt.Sprintf("modelcheck: cannot encode message type %T", m.msg))
}

func encodeCoreRREQ(out []byte, q *core.RREQ) []byte {
	out = append(out, 1)
	out = binary.AppendVarint(out, int64(q.Dst))
	out = binary.AppendUvarint(out, uint64(q.DstSeq))
	out = encFlag(out, q.HaveDstSeq)
	out = binary.AppendVarint(out, int64(q.Origin))
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

func encodeCoreRREP(out []byte, p *core.RREP) []byte {
	out = append(out, 2)
	out = binary.AppendVarint(out, int64(p.Dst))
	out = binary.AppendUvarint(out, uint64(p.DstSeq))
	out = binary.AppendVarint(out, int64(p.Origin))
	out = binary.AppendUvarint(out, uint64(p.ReqID))
	out = binary.AppendVarint(out, int64(p.Dist))
	out = binary.AppendVarint(out, int64(p.Lifetime))
	out = encFlag(out, p.N)
	return out
}

func (e *encoder) encodeCoreRERR(out []byte, r *core.RERR) []byte {
	e.dests = e.dests[:0]
	for _, u := range r.Unreachable {
		e.dests = append(e.dests, rerrDest{u.Dst, uint64(u.Seq)})
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

func encodeAODVRREQ(out []byte, q *aodv.RREQ) []byte {
	out = append(out, 4)
	out = binary.AppendVarint(out, int64(q.Dst))
	out = binary.AppendUvarint(out, uint64(q.DstSeq))
	out = encFlag(out, q.UnknownSeq)
	out = binary.AppendVarint(out, int64(q.Origin))
	out = binary.AppendUvarint(out, uint64(q.OriginSeq))
	out = binary.AppendUvarint(out, uint64(q.ReqID))
	out = binary.AppendVarint(out, int64(q.HopCount))
	out = binary.AppendVarint(out, int64(q.TTL))
	return out
}

func encodeAODVRREP(out []byte, p *aodv.RREP) []byte {
	out = append(out, 5)
	out = binary.AppendVarint(out, int64(p.Dst))
	out = binary.AppendUvarint(out, uint64(p.DstSeq))
	out = binary.AppendVarint(out, int64(p.Origin))
	out = binary.AppendVarint(out, int64(p.HopCount))
	out = binary.AppendVarint(out, int64(p.Lifetime))
	return out
}

func (e *encoder) encodeAODVRERR(out []byte, r *aodv.RERR) []byte {
	e.dests = e.dests[:0]
	for _, u := range r.Unreachable {
		e.dests = append(e.dests, rerrDest{u.Dst, uint64(u.Seq)})
	}
	return e.appendDests(append(out, 6))
}

func encFlag(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}
