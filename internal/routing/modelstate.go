package routing

// What a ModelStater's SaveModelState / RestoreModelState are built from:
// the node layer's own saved state, a packet copy that reuses storage,
// and map save/restore in ascending key order. See ModelStater for the
// contract.

import "slices"

// NodeModelState is the part of a Node a protocol handler, a crash or an
// origination can change under a ModelEnv: the packet-ID counter, the
// power state and the jitter stream's position. Everything else on a Node
// is fixed at construction or is a free list, and the MAC is never
// reached (no frame exists under the model). The shared collector is
// written, never read, by the protocols, so it is left to accumulate.
type NodeModelState struct {
	nextPktID uint64
	down      bool
	rng       [4]uint64
}

// SaveModelState copies the node layer's mutable state into s.
func (n *Node) SaveModelState(s *NodeModelState) {
	*s = NodeModelState{nextPktID: n.nextPktID, down: n.down, rng: n.rng.State()}
}

// RestoreModelState puts back a state SaveModelState copied out.
func (n *Node) RestoreModelState(s *NodeModelState) {
	n.nextPktID = s.nextPktID
	n.SetDown(s.down)
	n.rng.SetState(s.rng)
}

// CopyDataPacket overwrites dst with a deep copy of src, reusing dst's
// SourceRoute storage. dst keeps its own pool bookkeeping: a zero
// DataPacket stays unpooled, so every release on it is a no-op, as for
// CloneDataPacket.
func CopyDataPacket(dst, src *DataPacket) {
	sr, refs, pooled := dst.SourceRoute, dst.refs, dst.pooled
	*dst = *src
	dst.SourceRoute = append(sr[:0], src.SourceRoute...)
	dst.refs, dst.pooled = refs, pooled
}

// Resize returns s with length n. Elements within s's capacity keep their
// values, so a saved state's slots keep the storage they hold from one
// save to the next.
func Resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Saved is one entry of a map saved by SavePtrMap.
type Saved[K comparable, V any] struct {
	Key K
	Val V
}

// SavePtrMap copies a map of pointers into dst's storage in ascending key
// order: the pointed-to values are copied with cp, which must leave dst
// sharing no memory with src and may reuse what dst already holds (slots
// of dst keep their values' storage from one save to the next). A nil cp
// assigns.
func SavePtrMap[K comparable, V any](dst []Saved[K, V], m map[K]*V, cmpKey func(a, b K) int, cp func(dst, src *V)) []Saved[K, V] {
	dst = Resize(dst, len(m))
	i := 0
	for k, v := range m {
		dst[i].Key = k
		if cp == nil {
			dst[i].Val = *v
		} else {
			cp(&dst[i].Val, v)
		}
		i++
	}
	slices.SortFunc(dst, func(a, b Saved[K, V]) int { return cmpKey(a.Key, b.Key) })
	return dst
}

// RestorePtrMap makes m hold exactly the entries SavePtrMap copied out,
// with the same cmpKey and cp. Values m already points to are overwritten
// in place, so nothing may hold such a pointer across a restore expecting
// the old value; missing ones are allocated, surplus keys deleted.
func RestorePtrMap[K comparable, V any](m map[K]*V, src []Saved[K, V], cmpKey func(a, b K) int, cp func(dst, src *V)) {
	for i := range src {
		p := m[src[i].Key]
		if p == nil {
			p = new(V)
			m[src[i].Key] = p
		}
		if cp == nil {
			*p = src[i].Val
		} else {
			cp(p, &src[i].Val)
		}
	}
	if len(m) == len(src) {
		return
	}
	for k := range m {
		if _, ok := slices.BinarySearchFunc(src, k, func(e Saved[K, V], k K) int { return cmpKey(e.Key, k) }); !ok {
			delete(m, k)
		}
	}
}
