package routing

// What a ModelStater's SaveModelState / RestoreModelState are built from:
// the node layer's own saved state, a packet copy that reuses storage, the
// packets a restore takes and lets go of, and the growth of the slices
// indexed by node id that protocols keep their per-node state in. See
// ModelStater for the contract.

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
// DataPacket stays unpooled.
func CopyDataPacket(dst, src *DataPacket) {
	sr, refs, pooled := dst.SourceRoute, dst.refs, dst.pooled
	*dst = *src
	dst.SourceRoute = append(sr[:0], src.SourceRoute...)
	dst.refs, dst.pooled = refs, pooled
}

// RestorePacket returns a deep copy of saved, a packet a SaveModelState
// copied out, owned by the caller: under a ModelEnv an unpooled packet
// from the environment's free list, else one from the node's own.
func (n *Node) RestorePacket(saved *DataPacket) *DataPacket {
	var pkt *DataPacket
	if n.menv != nil {
		pkt = n.menv.ModelPacket()
	} else {
		pkt = n.newPacket()
	}
	CopyDataPacket(pkt, saved)
	return pkt
}

// ReleasePacket ends the caller's ownership of pkt with no terminal event
// accounted: a RestoreModelState lets go of the live packets it
// overwrites.
func (n *Node) ReleasePacket(pkt *DataPacket) { n.release(pkt) }

// Resize returns s with length n. Elements within s's capacity keep their
// values, so a saved state's slots keep the storage they hold from one
// save to the next.
func Resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Grow returns s extended with zero values to cover index id; when it has
// to grow, it grows to at least n, the number of nodes, so that a slice
// indexed by node id is allocated once (n = 0 grows to id+1). It may move
// s, so a caller grows to the largest id it will index before taking any
// pointer into s.
func Grow[T any](s []T, id NodeID, n int) []T {
	if int(id) >= len(s) {
		s = append(s, make([]T, max(int(id)+1, n)-len(s))...)
	}
	return s
}
