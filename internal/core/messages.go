package core

import (
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
)

// RREQ is an LDR route request: simultaneously a solicitation for a route
// to Dst and an advertisement of a route back to Origin (paper §2, Table 1
// notation). Only *RREQ is a routing.Message: the wire carries pooled
// pointers that the sending node recycles after transmission, and
// handlers work on their own value copy.
type RREQ struct {
	Dst        routing.NodeID
	DstSeq     Seqno // sn#: requested sequence number for Dst
	HaveDstSeq bool  // false when the origin has no state for Dst
	Origin     routing.NodeID
	OriginSeq  Seqno // origin's own sequence number (reverse advertisement)
	ReqID      uint32

	FD      int // fd#: running minimum feasible distance along the path
	AnsDist int // answering distance used for SDC (reduced-distance opt.)
	Dist    int // distance of the traversed path (reverse advertisement)
	TTL     int

	T bool // reset required: FDC violated somewhere along the path
	N bool // no reverse path: some relay could not install a route to Origin
	D bool // unicast leg: the RREQ is being forwarded to Dst for a reset
}

// Kind implements routing.Message.
func (*RREQ) Kind() metrics.ControlKind { return metrics.RREQ }

// Size implements routing.Message: the bytes on air of the fixed
// AODV-style fields plus the labeled-distance extension.
func (*RREQ) Size() int { return rreqWireSize }

// RREP is an LDR route reply: an advertisement of a route to Dst,
// forwarded hop-by-hop along the reverse path recorded by the RREQ flood.
type RREP struct {
	Dst      routing.NodeID
	DstSeq   Seqno
	Origin   routing.NodeID // terminus: the node whose solicitation this answers
	ReqID    uint32
	Dist     int
	Lifetime time.Duration
	N        bool // copied from the RREQ: reverse path incomplete
}

// Kind implements routing.Message.
func (*RREP) Kind() metrics.ControlKind { return metrics.RREP }

// Size implements routing.Message.
func (*RREP) Size() int { return rrepWireSize }

// RERRDest names one unreachable destination inside a RERR.
type RERRDest struct {
	Dst routing.NodeID
	Seq Seqno // the invalidated entry's sequence number
}

// RERR reports broken routes to upstream neighbors. Unlike AODV, LDR does
// not increment the destinations' sequence numbers here — sequence numbers
// belong to their destinations; the feasible distances already prevent
// loops through the stale upstream state.
type RERR struct {
	Unreachable []RERRDest
}

// Kind implements routing.Message.
func (*RERR) Kind() metrics.ControlKind { return metrics.RERR }

// Size implements routing.Message.
func (e *RERR) Size() int { return rerrWireBase + rerrWirePerDest*len(e.Unreachable) }

// Wire sizes of the fixed-layout messages (type byte included); each
// field's width is listed in scenario.TestMessageLayouts.
const (
	rreqWireSize    = 1 + 1 + 4 + 8 + 4 + 8 + 4 + 4 + 4 + 4 + 1
	rrepWireSize    = 1 + 1 + 4 + 8 + 4 + 4 + 4 + 4
	rerrWireBase    = 1 + 2
	rerrWirePerDest = 4 + 8
)
