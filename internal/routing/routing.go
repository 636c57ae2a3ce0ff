// Package routing provides the network-layer substrate shared by every
// routing protocol in this repository: node identifiers, data packets,
// control-message plumbing over the MAC, and the Protocol interface the
// LDR, AODV, DSR, and OLSR implementations plug into.
package routing

import (
	"strconv"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// NodeID identifies a node; IDs are dense indices starting at zero.
type NodeID int

// BroadcastID addresses all one-hop neighbors.
const BroadcastID NodeID = NodeID(mac.BroadcastAddr)

// DefaultTTL is the initial IP-style hop limit on data packets.
const DefaultTTL = 64

// DataPacket is a network-layer data packet.
//
// Ownership: a packet handed to a protocol (Originate, HandleData) is
// owned by that protocol until it reaches exactly one terminal call —
// DeliverLocal, DropData, or a successful SendData hand-off (the MAC
// acknowledging the frame consumes the sender's ownership). A failed
// SendData returns ownership through DataFailed, where the protocol must
// again retry, drop, or buffer it. Packets the node layer created come
// from a per-node free list and are recycled once every reference is
// released; violating the single-terminal-call rule corrupts the pool.
type DataPacket struct {
	Src, Dst NodeID
	ID       uint64        // unique per origin node
	Bytes    int           // payload size
	TTL      int           // remaining hop budget
	SentAt   time.Duration // origination time, for latency accounting

	// Source-routing fields, used by DSR only.
	SourceRoute []NodeID // full path including Src and Dst
	SRIndex     int      // index of the current hop in SourceRoute
	Salvaged    int      // number of times the packet has been salvaged

	// Retried marks a packet already re-sent once after a link failure at
	// this hop; protocols with a single-retry policy (OLSR) use it to drop
	// on the second failure. Cleared on every hop (the receiving node's
	// copy starts fresh).
	Retried bool

	// Pool bookkeeping, maintained by the owning Node. refs counts
	// outstanding ownership references (protocol holder + one per MAC
	// frame the packet sits in); pooled distinguishes free-list packets
	// from externally constructed ones, which are never recycled.
	refs   int32
	pooled bool
}

// Message is a protocol control message. Size is the on-air size in bytes
// and Kind classifies the message for load accounting.
//
// Only a pointer is a message: every protocol declares Kind and Size on
// its message types' pointer receivers, so a value does not satisfy the
// interface and each message has one form, the object the sender drew
// from its pool (see MessageRecycler). A received message (HandleControl)
// is shared with every other receiver of the broadcast and with the
// sender's pool: it is read-only and must not be retained past the call.
// Protocols that relay a message re-send a fresh copy.
type Message interface {
	Kind() metrics.ControlKind
	Size() int
}

// Protocol is the interface every routing protocol implements. All methods
// run on the simulator goroutine.
type Protocol interface {
	// Start installs timers and begins protocol operation.
	Start()
	// HandleControl processes a received control message.
	HandleControl(from NodeID, msg Message)
	// HandleData processes a received data packet (addressed to this node
	// at the link layer; may be destined here or need forwarding). The
	// protocol takes ownership of pkt (see DataPacket).
	HandleData(from NodeID, pkt *DataPacket)
	// Originate injects a locally generated data packet. The protocol
	// takes ownership of pkt.
	Originate(pkt *DataPacket)
	// Stop cancels timers; the protocol must not schedule further events.
	Stop()
}

// DataFailureHandler is implemented by protocols that react to the MAC
// exhausting its retries on a unicast data frame (link breakage). The
// failed packet's ownership returns to the protocol, which must retry,
// buffer, or drop it. Protocols that do not implement the interface
// silently lose failed packets (acceptable only in tests).
type DataFailureHandler interface {
	DataFailed(next NodeID, pkt *DataPacket)
}

// MessageRecycler is implemented by protocols that draw their control
// messages from free lists. The node layer hands a message back exactly
// once, after its MAC frame is fully released (transmitted or failed,
// all receptions completed); the protocol may then reuse the object.
type MessageRecycler interface {
	RecycleMessage(msg Message)
}

// RouteEntry is a normalized view of one routing-table row, used by the
// loop checker and debugging tools. SeqNo and FD are zero for protocols
// without those concepts.
type RouteEntry struct {
	Dst    NodeID
	Next   NodeID
	Metric int
	SeqNo  uint64
	FD     int
	Valid  bool
}

// TableSnapshotter is implemented by protocols whose routing state can be
// inspected for invariant checking.
type TableSnapshotter interface {
	SnapshotTable() []RouteEntry
}

// TableAppender is the allocation-free variant of TableSnapshotter:
// entries are appended to the caller's buffer. Continuous auditors (the
// fault subsystem snapshots every table many times per simulated second)
// use it to reuse one buffer across snapshots. The bounded model checker
// calls it concurrently on distinct instances (a network per worker),
// never on one instance at once, so it must write nothing that instances
// share.
type TableAppender interface {
	AppendTable(out []RouteEntry) []RouteEntry
}

// VolatileResetter is Reset without the protocol's stable storage: even
// the state Reset deliberately persists across a crash (for LDR, the
// node's own sequence number and the (sn, fd) labels of every known
// destination — paper §5) is wiped. The bounded model checker
// (internal/modelcheck) uses it to show the persistence is load-bearing:
// LDR with volatile resets loses loop freedom on the same schedules its
// persistent form survives.
type VolatileResetter interface {
	ResetVolatile()
}

// ModelStater is implemented by protocols the bounded model checker can
// drive: their complete protocol-level state can be serialized
// deterministically, which is what the checker memoizes states on, and
// saved and put back in place, which is how the checker backtracks on a
// live network instead of rebuilding one per state.
//
// AppendModelState's encoding must cover everything that influences
// future behaviour (tables with labels, duplicate caches, pending
// buffers, active discoveries, counters) and nothing that does not.
// Implementations must emit keyed and set-valued state in ascending key
// order, so that equal states serialize to equal bytes, and a sequence
// whose order the protocol reads (a tie broken by position) in that
// order, so that states that behave differently do not.
//
// SaveModelState and RestoreModelState cover MORE than the encoding:
// every field a handler, a reset or Start can write, including state
// the encoding leaves out because it cannot matter within a bounded
// exploration (rate-limiter buckets, timestamps). The
// encoding decides which states are the same; the snapshot has to make
// the one reused instance indistinguishable from a freshly built one
// that replayed the same actions, or state would leak from one explored
// branch into the next. What is exempt is what New fixes for good (node,
// configuration), free lists and scratch buffers.
// modelcheck.TestModelStateFieldCoverage lists every field as one or the
// other and fails on a field in neither list.
//
// SaveModelState copies the state into store and returns it: store is a
// value an earlier call on the same protocol type returned, whose
// storage is reused, or nil, for which new storage is allocated. Equal
// states save to reflect.DeepEqual values. RestoreModelState puts back a
// state saved from this same instance, slice lengths included, leaving
// store unchanged and sharing no memory with it, so one saved state can be
// restored any number of times. Both are methods of
// this interface, not of a further optional one, so that a decorator that
// embeds ModelStater forwards them without knowing them.
//
// The checker expands states on several workers, each with a network of
// its own, so all three methods are called concurrently on distinct
// instances, never on one instance at once: they must write nothing that
// instances share. The protocol's handlers, Start and reset are not: the
// checker runs them under one lock per exploration, so a factory may share
// state across the instances it builds.
type ModelStater interface {
	AppendModelState(out []byte) []byte
	SaveModelState(store any) any
	RestoreModelState(store any)
}

// ModelEnv replaces the MAC/radio transport and the protocol's timers
// when a node runs inside the bounded model checker: outgoing traffic is
// captured into per-link pending multisets instead of being framed onto
// the medium, and timers either run as deterministic immediate microtasks
// (broadcast jitter) or are discarded (discovery timeouts, cache expiry:
// unreachable at the model's frozen clock). Nothing reaches the node's
// simulator queue. See internal/modelcheck for the only implementation.
type ModelEnv interface {
	// ModelSendControl captures an outgoing control message. The message
	// object belongs to the environment until nothing it keeps holds the
	// message any more; then the environment hands it back to the
	// sender's pools through the sender's RecycleMessage, as a released
	// frame would.
	ModelSendControl(from, to NodeID, msg Message)
	// ModelSendData captures an outgoing data packet: the environment
	// queues a deep copy from its free list, and pkt stays the caller's
	// (SendData releases it right after, as a successful hand-off would).
	ModelSendData(from, next NodeID, pkt *DataPacket)
	// ModelPacket takes an unpooled packet from the environment's free
	// list, or a new one, for the caller to overwrite whole: a restored
	// buffer's packets come from here (RestorePacket).
	ModelPacket() *DataPacket
	// ModelRelease takes back an unpooled packet whose last owner let it
	// go: under a ModelEnv every unpooled packet is the environment's, and
	// the node layer returns it here when it delivers, drops or sends it.
	ModelRelease(pkt *DataPacket)
	// ModelSchedule takes over a protocol timer: the environment runs
	// fn(arg, u) as an immediate microtask or never. Either way the
	// protocol gets the zero Timer, which is safely cancellable and never
	// pending. The shape is sim.ScheduleTransient's, so a pooled wait
	// costs the environment no closure either.
	ModelSchedule(delay time.Duration, fn func(any, uint64), arg any, u uint64)
}

// Resetter is implemented by protocols whose volatile state can be wiped
// in place, modelling the memory loss of a crash/reboot cycle. Reset
// cancels the protocol's timers and discards routing state but leaves the
// instance runnable: the fault injector calls Reset at crash time and
// Start again at reboot. What survives a Reset is a per-protocol design
// decision — LDR persists its own destination sequence number (LDR paper
// §5), AODV deliberately loses its (the premise of the van Glabbeek
// et al. loop construction).
type Resetter interface {
	Reset()
}

// Node is the network layer of one simulated node. It owns the MAC, routes
// control and data packets to the protocol, and feeds the metrics
// collector. It implements mac.FrameHandler: send outcomes and frame
// releases come back through FrameSent/FrameFailed/FrameReleased, which
// lets frames, their netFrame payloads, and data packets live on per-node
// free lists instead of being reallocated per transmission.
type Node struct {
	id     NodeID
	nodes  int // in the network: every NodeID is below it
	sim    *sim.Simulator
	mac    *mac.MAC
	col    *metrics.Collector
	rng    *rng.Source
	proto  Protocol
	tracer Tracer

	// Interface views of proto, resolved once at SetProtocol so the hot
	// paths skip the type assertions.
	dataFail DataFailureHandler
	recycler MessageRecycler

	nextPktID uint64
	down      bool
	menv      ModelEnv // non-nil only under the bounded model checker

	// Run-local free lists (see internal/runpool): frames and their
	// netFrame payloads cycle through the MAC; packets cycle through
	// originate/forward/deliver. Nothing here is shared across nodes or
	// goroutines.
	framePool runpool.Pool[mac.Frame]
	nfPool    runpool.Pool[netFrame]
	pktPool   runpool.Pool[DataPacket]
}

var _ mac.FrameHandler = (*Node)(nil)

// netFrame is the payload the network layer puts in MAC frames. Exactly
// one of data/msg is set. onFail carries the control-frame failure
// callback (rare, cold path), called with the frame's next hop; a
// protocol binds it once, so a send allocates no closure. Data-frame
// failures dispatch through the protocol's DataFailureHandler instead.
type netFrame struct {
	data   *DataPacket
	msg    Message
	onFail func(next NodeID)
}

// NewNode wires a node's network layer to a fresh MAC on the medium.
func NewNode(id NodeID, s *sim.Simulator, medium *radio.Medium, macCfg mac.Config, col *metrics.Collector, src *rng.Source) *Node {
	n := &Node{
		id:    id,
		nodes: medium.Model().NumNodes(),
		sim:   s,
		col:   col,
		rng:   src,
	}
	n.mac = mac.New(int(id), s, medium, macCfg, src.Split("mac"), n.deliverFrame)
	return n
}

// SetProtocol binds the routing protocol. Must be called before Start.
func (n *Node) SetProtocol(p Protocol) {
	n.proto = p
	n.dataFail, _ = p.(DataFailureHandler)
	n.recycler, _ = p.(MessageRecycler)
}

// Protocol returns the bound protocol.
func (n *Node) Protocol() Protocol { return n.proto }

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// NumNodes returns the number of nodes in the network; every NodeID is
// below it, so a per-destination table can be one slot per node.
func (n *Node) NumNodes() int { return n.nodes }

// Now returns the current virtual time.
func (n *Node) Now() time.Duration { return n.sim.Now() }

// Schedule runs fn after delay of virtual time.
func (n *Node) Schedule(delay time.Duration, fn func()) sim.Timer {
	if n.menv != nil {
		n.menv.ModelSchedule(delay, callFunc, fn, 0)
		return sim.Timer{}
	}
	return n.sim.Schedule(delay, fn)
}

// callFunc runs a Schedule callback handed to ModelSchedule as its arg.
func callFunc(arg any, _ uint64) { arg.(func())() }

// ScheduleTransient runs fn(arg, u) after delay of virtual time, as
// sim.ScheduleTransient does: no handle, and no closure for a caller that
// passes a pooled record.
func (n *Node) ScheduleTransient(delay time.Duration, fn func(any, uint64), arg any, u uint64) {
	if n.menv != nil {
		n.menv.ModelSchedule(delay, fn, arg, u)
		return
	}
	n.sim.ScheduleTransient(delay, fn, arg, u)
}

// SetModelEnv diverts this node's transport and timers to a model
// environment (nil restores normal operation). Install before Start;
// see ModelEnv.
func (n *Node) SetModelEnv(env ModelEnv) { n.menv = env }

// RNG returns this node's random stream.
func (n *Node) RNG() *rng.Source { return n.rng }

// Metrics returns the run-wide collector.
func (n *Node) Metrics() *metrics.Collector { return n.col }

// MAC exposes the node's MAC for statistics.
func (n *Node) MAC() *mac.MAC { return n.mac }

// SetDown powers the node off (true) or on (false), taking its interface
// with it. It only flips the power state: crash semantics (wiping the
// MAC and protocol state) belong to the caller — see internal/fault.
func (n *Node) SetDown(down bool) {
	n.down = down
	n.mac.SetDown(down)
}

// Down reports whether the node is powered off.
func (n *Node) Down() bool { return n.down }

// newFrame pulls a frame and its netFrame payload from the free lists,
// reset and wired to this node's handler.
func (n *Node) newFrame() (*mac.Frame, *netFrame) {
	f := n.framePool.Get()
	nf := n.nfPool.Get()
	*nf = netFrame{}
	*f = mac.Frame{Payload: nf, Handler: n}
	return f, nf
}

// newPacket pulls a packet from the free list, zeroed except for the
// retained SourceRoute capacity, owned by the caller (refs=1).
func (n *Node) newPacket() *DataPacket {
	pkt := n.pktPool.Get()
	sr := pkt.SourceRoute
	*pkt = DataPacket{SourceRoute: sr[:0], refs: 1, pooled: true}
	return pkt
}

// copyPacket clones src into a fresh pooled packet for a receiver: every
// broadcast receiver must get its own copy, since mutating shared state
// (TTL, source-route index) would corrupt the other receivers. The clone starts a new ownership chain at this hop.
func (n *Node) copyPacket(src *DataPacket) *DataPacket {
	cp := n.pktPool.Get()
	sr := cp.SourceRoute
	*cp = *src
	cp.SourceRoute = append(sr[:0], src.SourceRoute...)
	cp.Retried = false
	cp.refs = 1
	cp.pooled = true
	return cp
}

// releasePacket drops one ownership reference; the last release returns
// the packet to the free list. Externally constructed packets (tests)
// are never recycled. It stays small enough to inline on the per-frame
// path (FrameReleased), which no model reaches; what a model may reach
// calls release.
func (n *Node) releasePacket(pkt *DataPacket) {
	if !pkt.pooled {
		return
	}
	if pkt.refs--; pkt.refs == 0 {
		n.pktPool.Put(pkt)
	}
}

// release is releasePacket where a model may hold the packet: under a
// ModelEnv every unpooled packet is the environment's, and goes back to
// its free list.
func (n *Node) release(pkt *DataPacket) {
	if n.menv != nil && !pkt.pooled {
		n.menv.ModelRelease(pkt)
		return
	}
	n.releasePacket(pkt)
}

// SendControl transmits a control message. to may be BroadcastID. The
// message is counted as one hop-wise control transmission; callers count
// initiations themselves via the collector. onFail, which may be nil, is
// invoked with to if a unicast transmission exhausts its MAC retries. The
// message belongs to the frame until the node layer recycles it (see
// MessageRecycler); callers must not reuse the same message object in a
// second SendControl call.
func (n *Node) SendControl(to NodeID, msg Message, onFail func(next NodeID)) {
	n.col.CountControlTransmit(msg.Kind())
	if n.menv != nil {
		// Model mode: the environment owns the message from here on, and
		// hands it back through RecycleMessage. onFail is dropped — the
		// abstract transport has no MAC feedback, so unicast failures are
		// unobservable (a soundness caveat the model checker documents).
		n.menv.ModelSendControl(n.id, to, msg)
		return
	}
	f, nf := n.newFrame()
	nf.msg = msg
	nf.onFail = onFail
	f.To = int(to)
	f.Bytes = msg.Size()
	n.mac.Send(f)
}

// SendData transmits a data packet to the next hop. A successful hand-off
// (MAC acknowledgment, or broadcast completion) consumes the caller's
// ownership of pkt; when the MAC exhausts its retries, ownership returns
// to the protocol through DataFailed. Under a ModelEnv every hand-off
// succeeds at once: the environment queues a copy from its free list, and
// pkt is released before SendData returns.
func (n *Node) SendData(next NodeID, pkt *DataPacket) {
	n.col.DataTransmitted++
	n.trace(TraceForward, pkt, next, 0)
	if n.menv != nil {
		// Model mode: an immediate successful hand-off. The environment
		// queues its own copy and the sender's ownership ends here,
		// exactly as a successful MAC acknowledgment would end it.
		n.menv.ModelSendData(n.id, next, pkt)
		n.release(pkt)
		return
	}
	if pkt.pooled {
		pkt.refs++ // the frame's reference, released with the frame
	}
	f, nf := n.newFrame()
	nf.data = pkt
	f.To = int(next)
	f.Bytes = pkt.Bytes + dataHeaderBytes(pkt)
	n.mac.Send(f)
}

// FrameSent implements mac.FrameHandler. Hand-off bookkeeping happens in
// FrameReleased, once receptions have drained too.
func (n *Node) FrameSent(f *mac.Frame) {}

// FrameFailed implements mac.FrameHandler: the MAC gave up on a unicast.
// Data-packet ownership returns to the protocol; control frames invoke
// their stashed onFail callback.
func (n *Node) FrameFailed(f *mac.Frame) {
	nf, ok := f.Payload.(*netFrame)
	if !ok {
		return
	}
	switch {
	case nf.data != nil:
		if n.dataFail != nil {
			n.dataFail.DataFailed(NodeID(f.To), nf.data)
		}
	case nf.onFail != nil:
		nf.onFail(NodeID(f.To))
	}
}

// FrameReleased implements mac.FrameHandler: the frame's last reference
// (queue slot and every in-flight transmission) is gone, so the frame,
// its netFrame, and — for successful data hand-offs — the sender's packet
// reference can all be reclaimed.
func (n *Node) FrameReleased(f *mac.Frame) {
	nf, ok := f.Payload.(*netFrame)
	if !ok {
		return
	}
	if nf.data != nil {
		if !f.Failed {
			// Successful hand-off: the next hop (or broadcast receivers)
			// copied the packet, so the sender's ownership ends here.
			n.releasePacket(nf.data)
		}
		n.releasePacket(nf.data) // the frame's own reference
	} else if nf.msg != nil {
		n.RecycleMessage(nf.msg)
	}
	*nf = netFrame{}
	n.nfPool.Put(nf)
	f.Payload = nil
	f.Handler = nil
	f.Failed = false
	n.framePool.Put(f)
}

// RecycleMessage hands msg, a control message this node sent, back to
// its protocol's pools (MessageRecycler), if it keeps any. The caller
// must hold no reference to msg afterwards: FrameReleased calls it when a
// frame is gone, a ModelEnv when nothing it keeps holds the message.
func (n *Node) RecycleMessage(msg Message) {
	if n.recycler != nil {
		n.recycler.RecycleMessage(msg)
	}
}

// OriginateData creates a data packet at this node and hands it to the
// protocol. It is the entry point used by the traffic generator.
func (n *Node) OriginateData(dst NodeID, bytes int) {
	n.nextPktID++
	pkt := n.newPacket()
	pkt.Src = n.id
	pkt.Dst = dst
	pkt.ID = n.nextPktID
	pkt.Bytes = bytes
	pkt.TTL = DefaultTTL
	pkt.SentAt = n.sim.Now()
	n.col.NoteInitiated(int(pkt.Src), pkt.ID)
	n.trace(TraceOriginate, pkt, BroadcastID, 0)
	if n.down {
		// The application is down with the node: the packet still counts
		// as offered load (the flow does not pause for the outage) and is
		// lost on the spot.
		n.DropData(pkt, DropNodeDown)
		return
	}
	n.proto.Originate(pkt)
}

// DeliverLocal records the successful end-to-end delivery of a packet
// destined to this node, consuming the caller's ownership of pkt. A
// packet whose (Src, ID) already saw a terminal event — the original of
// a radio-duplicated copy, typically — is suppressed: it neither recounts
// DataDelivered nor re-accumulates latency, and emits no trace event
// (the first terminal event wins).
func (n *Node) DeliverLocal(pkt *DataPacket) {
	if n.col.NoteDelivered(int(pkt.Src), pkt.ID) {
		lat := n.sim.Now() - pkt.SentAt
		n.col.TotalLatency += lat
		n.col.Latency.Observe(lat)
		if hops := DefaultTTL - pkt.TTL + 1; hops > 0 {
			n.col.HopsSum += uint64(hops)
		}
		n.trace(TraceDeliver, pkt, n.id, 0)
	}
	n.release(pkt)
}

// DropData records a data packet lost at this node for the given reason
// (no route, TTL expiry, queue overflow, link failure, crash wipe),
// consuming the caller's ownership of pkt. Like DeliverLocal it is
// first-terminal-event-wins: dropping a stale copy of an already-terminal
// packet only bumps the LateDrops diagnostic.
func (n *Node) DropData(pkt *DataPacket, reason DropReason) {
	if n.col.NoteDropped(int(pkt.Src), pkt.ID, reason) {
		n.trace(TraceDrop, pkt, BroadcastID, reason)
	}
	n.release(pkt)
}

// Crash models a node crash for the fault injector: the node powers off,
// every data packet waiting in (or at the head of) its MAC queue is
// accounted as dropped with DropReset, and the MAC and volatile protocol
// state are wiped. Without the queue walk those packets would vanish —
// initiated but never delivered or dropped — and break the conservation
// equation the conformance auditor enforces.
//
// Ordering matters for the pools: DropData here releases each packet's
// protocol reference while the MAC frame still holds its own, and
// mac.Reset then marks the frames failed and releases them without
// callbacks — FrameReleased sees Failed and drops only the frame
// reference, so nothing is released twice.
func (n *Node) Crash() {
	n.SetDown(true)
	n.mac.ForEachQueued(func(f *mac.Frame) {
		if nf, ok := f.Payload.(*netFrame); ok && nf.data != nil {
			n.DropData(nf.data, DropReset)
		}
	})
	n.mac.Reset()
	if r, ok := n.proto.(Resetter); ok {
		r.Reset()
	}
}

// HeldDataWalker is implemented by protocols that buffer data packets
// (route-discovery pending queues). The conformance auditor uses it to
// census every place a live packet can legitimately wait.
type HeldDataWalker interface {
	WalkHeldData(fn func(*DataPacket))
}

// HeldControlWalker is implemented by protocols that queue control
// messages after counting their initiation but before handing them to
// SendControl (OLSR's jitter queue). The conformance auditor's control
// ledger uses it: for every kind, initiated must not exceed transmitted
// plus dropped plus currently held.
type HeldControlWalker interface {
	WalkHeldControl(fn func(metrics.ControlKind))
}

// WalkHeldData invokes fn for every data packet currently held at this
// node: frames in the MAC interface queue (including an in-flight head
// awaiting its ACK) and the protocol's own pending buffers.
func (n *Node) WalkHeldData(fn func(*DataPacket)) {
	n.mac.ForEachQueued(func(f *mac.Frame) {
		if nf, ok := f.Payload.(*netFrame); ok && nf.data != nil {
			fn(nf.data)
		}
	})
	if w, ok := n.proto.(HeldDataWalker); ok {
		w.WalkHeldData(fn)
	}
}

func (n *Node) deliverFrame(from int, f *mac.Frame) {
	nf, ok := f.Payload.(*netFrame)
	if !ok || n.proto == nil {
		return
	}
	switch {
	case nf.msg != nil:
		n.proto.HandleControl(NodeID(from), nf.msg)
	case nf.data != nil:
		// Hand the protocol its own pooled copy (see copyPacket).
		n.proto.HandleData(NodeID(from), n.copyPacket(nf.data))
	}
}

// dataHeaderBytes is the network-layer header added to data payloads: a
// 20-byte IP-like header, plus the DSR source-route option when present.
func dataHeaderBytes(pkt *DataPacket) int {
	h := 20
	if len(pkt.SourceRoute) > 0 {
		h += 4 + 4*len(pkt.SourceRoute)
	}
	return h
}

// Network bundles a complete simulated network: engine, medium, and nodes.
type Network struct {
	Sim       *sim.Simulator
	Medium    *radio.Medium
	Nodes     []*Node
	Collector *metrics.Collector

	// Root is the RNG stream every per-node stream was split from; its
	// draw counter totals the whole node tree (see rng.Source.Draws), a
	// cheap determinism fingerprint for the replay layer.
	Root *rng.Source
}

// WalkHeldData invokes fn for every data packet currently held anywhere
// in the network: node MAC queues, protocol pending buffers, and radio
// deliveries deferred by the delay fault hook. It is the conformance
// auditor's census of where live packets can be.
func (nw *Network) WalkHeldData(fn func(*DataPacket)) {
	for _, n := range nw.Nodes {
		n.WalkHeldData(fn)
	}
	nw.Medium.ForEachPendingDelivery(func(payload any) {
		p, ok := mac.DataPayload(payload)
		if !ok {
			return
		}
		if nf, ok := p.(*netFrame); ok && nf.data != nil {
			fn(nf.data)
		}
	})
}

// WalkHeldControl invokes fn with the kind of every control message a
// protocol has initiated but not yet passed to SendControl. Transmission
// is counted at SendControl (MAC enqueue), so MAC queues and the air
// need no walking here — only protocol-level staging queues.
func (nw *Network) WalkHeldControl(fn func(metrics.ControlKind)) {
	for _, n := range nw.Nodes {
		if w, ok := n.proto.(HeldControlWalker); ok {
			w.WalkHeldControl(fn)
		}
	}
}

// ProtocolFactory builds a protocol instance bound to a node.
type ProtocolFactory func(n *Node) Protocol

// NewNetwork creates n nodes over the given mobility model and binds a
// protocol instance to each. Protocols are created but not started; call
// Start to begin.
func NewNetwork(numNodes int, model mobility.Model, macCfg mac.Config, seed int64, factory ProtocolFactory) *Network {
	s := sim.New()
	root := rng.New(seed)
	col := metrics.NewCollector()
	medium := radio.New(s, model, radio.DefaultConfig())
	nw := &Network{
		Sim:       s,
		Medium:    medium,
		Nodes:     make([]*Node, numNodes),
		Collector: col,
		Root:      root,
	}
	for i := 0; i < numNodes; i++ {
		node := NewNode(NodeID(i), s, medium, macCfg, col, root.Split("node"+strconv.Itoa(i)))
		node.SetProtocol(factory(node))
		nw.Nodes[i] = node
	}
	return nw
}

// Start starts every node's protocol.
func (nw *Network) Start() {
	for _, n := range nw.Nodes {
		n.proto.Start()
	}
}

// Stop stops every node's protocol.
func (nw *Network) Stop() {
	for _, n := range nw.Nodes {
		n.proto.Stop()
	}
}
