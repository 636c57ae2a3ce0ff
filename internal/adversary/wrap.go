package adversary

import (
	"fmt"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// stormTTL is the hop budget on forged flood requests: the protocols'
// default NetDiameter, so every storm packet is relayed network-wide by
// nodes that have not rate-limited the attacker yet.
const stormTTL = 35

// recordCap bounds the stale-replay ring buffer per compromised node.
const recordCap = 32

// recorded is one overheard control message retained for replay.
type recorded struct {
	at  time.Duration
	msg routing.Message
}

// wrapped is the Byzantine interceptor around one node's real protocol
// instance. The inner protocol keeps running — relaying floods,
// answering requests, holding honestly learned routes — which is both
// the best camouflage and what keeps the node attracting traffic; the
// wrapper adds the lying on top.
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
	eng   *Engine
	node  *routing.Node
	inner routing.Protocol
	src   *rng.Source

	behaviors  []Compromise
	forger     forger
	recorded   []recorded
	flowSalt   int
	stormReqID uint32
	timersOn   bool
	stopped    bool
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
	w := &wrapped{
		eng:        eng,
		node:       node,
		inner:      node.Protocol(),
		src:        src,
		flowSalt:   src.Intn(2),
		stormReqID: 1 << 20, // far above the inner protocol's request IDs
	}
	switch w.inner.(type) {
	case *aodv.AODV:
		w.forger = aodvForger{}
	case *core.LDR:
		w.forger = ldrForger{}
	default:
		// DSR and OLSR carry no destination sequence number to forge;
		// their storms re-broadcast recorded control traffic instead.
		w.forger = genericForger{}
	}
	return w
}

// active returns the first activated compromise with the behavior, or
// nil before its activation time.
func (w *wrapped) active(b Behavior) *Compromise {
	now := w.node.Now()
	for i := range w.behaviors {
		if c := &w.behaviors[i]; c.Behavior == b && now >= c.At {
			return c
		}
	}
	return nil
}

// --- routing.Protocol ---

// Start starts the inner protocol and, once per run, the attack timers.
// A reboot after a crash re-enters here; the timers survive on the
// simulator and need no rescheduling (their ticks check Down).
func (w *wrapped) Start() {
	w.inner.Start()
	if w.timersOn {
		return
	}
	w.timersOn = true
	for i := range w.behaviors {
		c := &w.behaviors[i]
		start := c.At
		switch c.Behavior {
		case Storm:
			if start <= 0 {
				start = c.StormEvery
			}
			w.eng.nw.Sim.Every(start, c.StormEvery, w.eng.until, func() { w.stormTick(c) })
		case StaleReplay:
			if start <= 0 {
				start = c.ReplayEvery
			}
			w.eng.nw.Sim.Every(start, c.ReplayEvery, w.eng.until, func() { w.replayTick(c) })
		}
	}
}

// Stop stops the inner protocol and silences the attack timers.
func (w *wrapped) Stop() {
	w.stopped = true
	w.inner.Stop()
}

// HandleData intercepts transit data for the dropping behaviors; data
// addressed to the compromised node itself is delivered normally (a
// blackhole that stopped receiving would blow its cover immediately).
// Every adversarial discard is an accounted drop — DropAdversary — so
// the conservation equation holds under attack.
func (w *wrapped) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst != w.node.ID() {
		if w.active(Blackhole) != nil {
			w.node.DropData(pkt, routing.DropAdversary)
			w.eng.Stats.DataDropped++
			return
		}
		if c := w.active(Grayhole); c != nil && w.grayDrop(c, pkt) {
			w.node.DropData(pkt, routing.DropAdversary)
			w.eng.Stats.DataDropped++
			return
		}
	}
	w.inner.HandleData(from, pkt)
}

// grayDrop decides a grayhole discard: per-flow (a deterministic half of
// all (src, dst) pairs, chosen by a seeded salt) or per-packet with
// dropProb.
func (w *wrapped) grayDrop(c *Compromise, pkt *routing.DataPacket) bool {
	if c.PerFlow {
		return (int(pkt.Src)+int(pkt.Dst)+w.flowSalt)%2 == 0
	}
	return w.src.Float64() < dropProb
}

// HandleControl records replay material, forges inflated-seqno replies
// to overheard requests, and always lets the inner protocol process the
// original message (the adversary stays a correctly-behaving router on
// the control plane it does not actively forge).
func (w *wrapped) HandleControl(from routing.NodeID, msg routing.Message) {
	if w.active(StaleReplay) != nil || w.active(Storm) != nil {
		w.record(msg)
	}
	if w.active(SeqnoInflate) != nil && w.forger.forgeReply(w, from, msg) {
		w.eng.Stats.ForgedRREPs++
	}
	w.inner.HandleControl(from, msg)
}

// Originate passes the node's own traffic through untouched.
func (w *wrapped) Originate(pkt *routing.DataPacket) { w.inner.Originate(pkt) }

// DataFailed delegates MAC-level data failures to the inner protocol's
// route maintenance. The node resolves this handler from its installed
// protocol — the wrapper — so without the delegation a failed frame's
// packet would never be returned and the conformance census would flag
// it as vanished.
func (w *wrapped) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if h, ok := w.inner.(routing.DataFailureHandler); ok {
		h.DataFailed(next, pkt)
	}
}

// RecycleMessage delegates wire-message recycling to the inner protocol's
// pools. The wrapper's own sends (forged, replayed and storm messages) are
// pointers of the inner protocol's message types, which its pools adopt
// like the ones they handed out.
func (w *wrapped) RecycleMessage(msg routing.Message) {
	if r, ok := w.inner.(routing.MessageRecycler); ok {
		r.RecycleMessage(msg)
	}
}

// record retains replies, errors, and topology messages — the messages
// that carry route state worth replaying after it goes stale. The wire
// path delivers pooled pointers that the sender recycles once the frame
// completes, so the wrapper must deep-clone what it keeps. What it keeps
// is never sent itself: every send is a fresh clone (send).
func (w *wrapped) record(msg routing.Message) {
	switch msg.Kind() {
	case metrics.RREP, metrics.RERR, metrics.TC:
	default:
		return
	}
	if len(w.recorded) >= recordCap {
		copy(w.recorded, w.recorded[1:])
		w.recorded = w.recorded[:recordCap-1]
	}
	w.recorded = append(w.recorded, recorded{at: w.node.Now(), msg: cloneMessage(msg)})
}

// cloneMessage deep-copies a recordable message into a fresh one that
// shares no memory with it.
func cloneMessage(msg routing.Message) routing.Message {
	switch m := msg.(type) {
	case *core.RREP:
		cp := *m
		return &cp
	case *core.RERR:
		cp := *m
		cp.Unreachable = slices.Clone(m.Unreachable)
		return &cp
	case *aodv.RREP:
		cp := *m
		return &cp
	case *aodv.RERR:
		cp := *m
		cp.Unreachable = slices.Clone(m.Unreachable)
		return &cp
	case *dsr.RREP:
		cp := *m
		cp.Route = slices.Clone(m.Route)
		return &cp
	case *dsr.RERR:
		cp := *m
		cp.Route = slices.Clone(m.Route)
		return &cp
	case *olsr.TC:
		cp := *m
		cp.Selectors = slices.Clone(m.Selectors)
		return &cp
	}
	panic(fmt.Sprintf("adversary: cannot clone %T", msg))
}

// send broadcasts a fresh clone of a recorded message. The inner
// protocol's pool adopts and reuses the copy once its frame is released,
// so sending the recorded object itself would let that reuse overwrite
// the record.
func (w *wrapped) send(msg routing.Message) {
	w.node.Metrics().CountControlInitiate(msg.Kind())
	w.node.SendControl(routing.BroadcastID, cloneMessage(msg), nil)
}

// --- attack timers ---

func (w *wrapped) stormTick(c *Compromise) {
	if w.stopped || w.node.Down() {
		return
	}
	w.forger.storm(w, c)
}

// replayTick re-broadcasts up to replayBurst recorded messages that
// have aged past ReplayAge: expired LDR (sn, fd) labels, dead AODV
// routes, stale OLSR topology. Each replay counts an initiation before
// transmission, keeping the control ledgers balanced.
func (w *wrapped) replayTick(c *Compromise) {
	if w.stopped || w.node.Down() {
		return
	}
	now := w.node.Now()
	sent := 0
	for _, rec := range w.recorded {
		if sent >= replayBurst {
			break
		}
		if now-rec.at < c.ReplayAge {
			continue
		}
		w.send(rec.msg)
		w.eng.Stats.Replayed++
		sent++
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
// protocol's volatile state and the replay buffer, but the compromise
// itself persists across the reboot — malware survives power cycles.
func (w *wrapped) Reset() {
	if r, ok := w.inner.(routing.Resetter); ok {
		r.Reset()
	}
	w.recorded = w.recorded[:0]
}

// WalkHeldData implements routing.HeldDataWalker by delegation: packets
// buffered inside the inner protocol are real and must stay visible to
// the conformance census.
func (w *wrapped) WalkHeldData(fn func(*routing.DataPacket)) {
	if h, ok := w.inner.(routing.HeldDataWalker); ok {
		h.WalkHeldData(fn)
	}
}

// WalkHeldControl implements routing.HeldControlWalker by delegation.
func (w *wrapped) WalkHeldControl(fn func(metrics.ControlKind)) {
	if h, ok := w.inner.(routing.HeldControlWalker); ok {
		h.WalkHeldControl(fn)
	}
}

// ReportSeqnos delegates the Fig. 7 sequence-number sampling when the
// inner protocol supports it (the interface itself lives in
// internal/scenario; structural typing matches this method to it).
func (w *wrapped) ReportSeqnos(col *metrics.Collector) {
	if r, ok := w.inner.(interface{ ReportSeqnos(*metrics.Collector) }); ok {
		r.ReportSeqnos(col)
	}
}

// --- protocol-specific forgery ---

// forger adapts the forging behaviors to one protocol's message types.
type forger interface {
	// forgeReply answers an overheard route request with a forged,
	// inflated-seqno reply unicast back to the relay that delivered it,
	// reporting whether a reply was sent.
	forgeReply(w *wrapped, from routing.NodeID, msg routing.Message) bool
	// storm emits one burst of forged control traffic.
	storm(w *wrapped, c *Compromise)
}

// aodvForger forges AODV messages. The loop construction: every forged
// RREP carries the SAME enormous destination sequence number with a
// VARYING hop-count lie. AODV accepts an equal-seqno reply whenever the
// current route is expired or longer, and forwards every RREP along
// reverse routes regardless — so two honest nodes can each come to
// believe the other is its next hop toward the destination at the same
// forged number, a cycle among correct nodes that the loopcheck auditor
// flags. LDR is immune to the same play: relays re-advertise their OWN
// (sn, fd) labels rather than incrementing the forged distance, and NDC
// refuses any advertisement that does not beat the stored label.
type aodvForger struct{}

func (aodvForger) forgeReply(w *wrapped, from routing.NodeID, msg routing.Message) bool {
	q, ok := msg.(*aodv.RREQ)
	if !ok || q.Dst == w.node.ID() || q.Origin == w.node.ID() {
		return false
	}
	p := &aodv.RREP{
		Dst:      q.Dst,
		DstSeq:   forgedSeq,
		Origin:   q.Origin,
		HopCount: w.src.Intn(maxHopLie + 1),
		Lifetime: 9 * time.Second,
	}
	w.node.Metrics().CountControlInitiate(metrics.RREP)
	w.node.SendControl(from, p, nil)
	return true
}

func (aodvForger) storm(w *wrapped, c *Compromise) {
	me := w.node.ID()
	n := len(w.eng.nw.Nodes)
	if n < 2 {
		return
	}
	for i := 0; i < c.StormBurst; i++ {
		dst := w.randOther(n)
		w.stormReqID++
		q := &aodv.RREQ{
			Dst:       dst,
			DstSeq:    forgedSeq, // unanswerable: nobody honest holds this
			Origin:    me,
			OriginSeq: forgedSeq,
			ReqID:     w.stormReqID,
			TTL:       stormTTL,
		}
		w.node.Metrics().CountControlInitiate(metrics.RREQ)
		w.node.SendControl(routing.BroadcastID, q, nil)
		w.eng.Stats.StormRREQs++
	}
	e := &aodv.RERR{Unreachable: []aodv.RERRDest{{Dst: w.randOther(n), Seq: forgedSeq}}}
	w.node.Metrics().CountControlInitiate(metrics.RERR)
	w.node.SendControl(routing.BroadcastID, e, nil)
	w.eng.Stats.StormRERRs++
}

// ldrForger forges LDR messages. The forged sequence number occupies
// the timestamp half of the packed Seqno, dominating any honest value;
// the destination recovers by jumping its own number past the forgery
// the next time it answers (ldr.destinationReply's stale-universe
// branch) — destination control of the number is exactly the paper's §5
// defense.
type ldrForger struct{}

func (ldrForger) forgeReply(w *wrapped, from routing.NodeID, msg routing.Message) bool {
	q, ok := msg.(*core.RREQ)
	if !ok || q.Dst == w.node.ID() || q.Origin == w.node.ID() {
		return false
	}
	p := &core.RREP{
		Dst:      q.Dst,
		DstSeq:   core.NewSeqno(forgedSeq, 0),
		Origin:   q.Origin,
		ReqID:    q.ReqID,
		Dist:     w.src.Intn(maxHopLie + 1),
		Lifetime: 10 * time.Second,
	}
	w.node.Metrics().CountControlInitiate(metrics.RREP)
	w.node.SendControl(from, p, nil)
	return true
}

func (ldrForger) storm(w *wrapped, c *Compromise) {
	me := w.node.ID()
	n := len(w.eng.nw.Nodes)
	if n < 2 {
		return
	}
	forged := core.NewSeqno(forgedSeq, 0)
	for i := 0; i < c.StormBurst; i++ {
		dst := w.randOther(n)
		w.stormReqID++
		q := &core.RREQ{
			Dst:        dst,
			DstSeq:     forged, // unanswerable by honest state
			HaveDstSeq: true,
			Origin:     me,
			OriginSeq:  forged,
			ReqID:      w.stormReqID,
			FD:         core.Infinity,
			AnsDist:    core.Infinity,
			TTL:        stormTTL,
		}
		w.node.Metrics().CountControlInitiate(metrics.RREQ)
		w.node.SendControl(routing.BroadcastID, q, nil)
		w.eng.Stats.StormRREQs++
	}
	e := &core.RERR{Unreachable: []core.RERRDest{{Dst: w.randOther(n), Seq: forged}}}
	w.node.Metrics().CountControlInitiate(metrics.RERR)
	w.node.SendControl(routing.BroadcastID, e, nil)
	w.eng.Stats.StormRERRs++
}

// genericForger covers protocols without destination sequence numbers
// (DSR, OLSR): nothing to forge into a reply, and its storm
// re-broadcasts recorded control traffic as a flooding attack instead
// of fabricating messages.
type genericForger struct{}

func (genericForger) forgeReply(*wrapped, routing.NodeID, routing.Message) bool {
	return false
}

func (genericForger) storm(w *wrapped, c *Compromise) {
	for i := 0; i < len(w.recorded) && i < c.StormBurst; i++ {
		msg := w.recorded[i].msg
		w.send(msg)
		if msg.Kind() == metrics.RERR {
			w.eng.Stats.StormRERRs++
		} else {
			w.eng.Stats.StormRREQs++
		}
	}
}

// randOther draws a uniform node id other than the wrapper's own.
func (w *wrapped) randOther(n int) routing.NodeID {
	id := w.src.Intn(n - 1)
	if id >= int(w.node.ID()) {
		id++
	}
	return routing.NodeID(id)
}
