package adversary

import (
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// wrapped is the Byzantine interceptor around one node's real protocol
// instance. The inner protocol keeps running — relaying floods,
// answering requests, holding honestly learned routes, forwarding data
// — which is both the best camouflage and what keeps the node
// attracting traffic; the wrapper adds the lying on top.
//
// Observability: the wrapper exposes an EMPTY routing table. A
// Byzantine node's table rows are under the attacker's control, so a
// cycle through them is trivially constructible and proves nothing;
// what the loopcheck auditor must certify is the honest subgraph, and
// hiding the compromised table is exactly the quantification
// "invariants hold over correct nodes" from Byzantine analysis. Held
// data and control, by contrast, ARE delegated: the packets buffered
// inside the inner protocol are real, and hiding them would break the
// conformance census.
type wrapped struct {
	routing.Protocol // the node's real protocol instance

	eng  *Engine
	node *routing.Node
	src  *rng.Source
}

var (
	_ routing.Protocol           = (*wrapped)(nil)
	_ routing.TableAppender      = (*wrapped)(nil)
	_ routing.TableSnapshotter   = (*wrapped)(nil)
	_ routing.Resetter           = (*wrapped)(nil)
	_ routing.HeldDataWalker     = (*wrapped)(nil)
	_ routing.HeldControlWalker  = (*wrapped)(nil)
	_ routing.DataFailureHandler = (*wrapped)(nil)
	_ routing.MessageRecycler    = (*wrapped)(nil)
)

func newWrapped(eng *Engine, node *routing.Node, src *rng.Source) *wrapped {
	return &wrapped{Protocol: node.Protocol(), eng: eng, node: node, src: src}
}

// HandleControl forges a reply to an overheard route request once the
// plan is active, and always lets the inner protocol process the
// original message (the adversary stays a correctly-behaving router on
// the control plane it does not actively forge).
func (w *wrapped) HandleControl(from routing.NodeID, msg routing.Message) {
	if w.node.Now() >= w.eng.plan.At {
		w.forgeReply(from, msg)
	}
	w.Protocol.HandleControl(from, msg)
}

// forgeReply answers an overheard route request with a forged reply
// unicast back to the relay that delivered it.
//
// AODV: every forged RREP carries the SAME enormous destination
// sequence number with a VARYING hop-count lie. AODV accepts an
// equal-seqno reply whenever the current route is expired or longer,
// and forwards every RREP along reverse routes regardless — so two
// honest nodes can each come to believe the other is its next hop
// toward the destination at the same forged number, a cycle among
// correct nodes that the loopcheck auditor flags.
//
// LDR: the forged number occupies the timestamp half of the packed
// Seqno, dominating any honest value. LDR is immune to the play: relays
// re-advertise their OWN (sn, fd) labels rather than incrementing the
// forged distance, NDC refuses any advertisement that does not beat the
// stored label, and the destination recovers by jumping its own number
// past the forgery the next time it answers (ldr.destinationReply's
// stale-universe branch) — destination control of the number is
// exactly the paper's §5 defense.
//
// DSR and OLSR carry no destination sequence number to forge, so any
// other message is left alone.
func (w *wrapped) forgeReply(from routing.NodeID, msg routing.Message) {
	me := w.node.ID()
	var p routing.Message
	switch q := msg.(type) {
	case *aodv.RREQ:
		if q.Dst == me || q.Origin == me {
			return
		}
		p = &aodv.RREP{
			Dst:      q.Dst,
			DstSeq:   forgedSeq,
			Origin:   q.Origin,
			HopCount: w.src.Intn(maxHopLie + 1),
			Lifetime: 9 * time.Second,
		}
	case *core.RREQ:
		if q.Dst == me || q.Origin == me {
			return
		}
		p = &core.RREP{
			Dst:      q.Dst,
			DstSeq:   core.NewSeqno(forgedSeq, 0),
			Origin:   q.Origin,
			ReqID:    q.ReqID,
			Dist:     w.src.Intn(maxHopLie + 1),
			Lifetime: 10 * time.Second,
		}
	default:
		return
	}
	w.node.Metrics().CountControlInitiate(metrics.RREP)
	w.node.SendControl(from, p, nil)
	w.eng.Stats.ForgedRREPs++
}

// DataFailed delegates MAC-level data failures to the inner protocol's
// route maintenance. The node resolves this handler from its installed
// protocol — the wrapper — so without the delegation a failed frame's
// packet would never be returned and the conformance census would flag
// it as vanished.
func (w *wrapped) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if h, ok := w.Protocol.(routing.DataFailureHandler); ok {
		h.DataFailed(next, pkt)
	}
}

// RecycleMessage delegates wire-message recycling to the inner protocol's
// pools. The wrapper's forged replies are pointers of the inner
// protocol's message types, which its pools adopt like the ones they
// handed out.
func (w *wrapped) RecycleMessage(msg routing.Message) {
	if r, ok := w.Protocol.(routing.MessageRecycler); ok {
		r.RecycleMessage(msg)
	}
}

// --- delegated observability ---

// AppendTable implements routing.TableAppender with an empty table: a
// Byzantine node's routing claims are unattested, so the loopcheck
// auditor scores the honest subgraph only (see the package comment).
func (w *wrapped) AppendTable(out []routing.RouteEntry) []routing.RouteEntry { return out }

// SnapshotTable implements routing.TableSnapshotter (empty; see
// AppendTable).
func (w *wrapped) SnapshotTable() []routing.RouteEntry { return nil }

// Reset implements routing.Resetter: the crash wipes the inner
// protocol's volatile state, but the compromise itself persists across
// the reboot — malware survives power cycles.
func (w *wrapped) Reset() {
	if r, ok := w.Protocol.(routing.Resetter); ok {
		r.Reset()
	}
}

// WalkHeldData implements routing.HeldDataWalker by delegation: packets
// buffered inside the inner protocol are real and must stay visible to
// the conformance census.
func (w *wrapped) WalkHeldData(fn func(*routing.DataPacket)) {
	if h, ok := w.Protocol.(routing.HeldDataWalker); ok {
		h.WalkHeldData(fn)
	}
}

// WalkHeldControl implements routing.HeldControlWalker by delegation.
func (w *wrapped) WalkHeldControl(fn func(metrics.ControlKind)) {
	if h, ok := w.Protocol.(routing.HeldControlWalker); ok {
		h.WalkHeldControl(fn)
	}
}

// ReportSeqnos delegates the Fig. 7 sequence-number sampling when the
// inner protocol supports it (the interface itself lives in
// internal/scenario; structural typing matches this method to it).
func (w *wrapped) ReportSeqnos(col *metrics.Collector) {
	if r, ok := w.Protocol.(interface{ ReportSeqnos(*metrics.Collector) }); ok {
		r.ReportSeqnos(col)
	}
}
