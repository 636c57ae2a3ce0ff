// Package metrics collects the per-run counters behind every table and
// figure in the LDR paper's evaluation (§4).
//
// Terminology follows the paper: a "transmitted" count includes every
// hop-wise transmission, an "initiated" count only the first transmission
// of a packet. The derived quantities (delivery ratio, network load, RREQ
// load, RREP Init, RREP Recv, mean latency) are the paper's six metrics.
package metrics

import "time"

// ControlKind classifies control packets for load accounting.
type ControlKind int

// Control packet kinds across all four protocols.
const (
	RREQ ControlKind = iota + 1
	RREP
	RERR
	Hello
	TC
	OtherControl

	numKinds
)

// String returns the kind's wire name.
func (k ControlKind) String() string {
	switch k {
	case RREQ:
		return "RREQ"
	case RREP:
		return "RREP"
	case RERR:
		return "RERR"
	case Hello:
		return "HELLO"
	case TC:
		return "TC"
	default:
		return "CTRL"
	}
}

// NumControlKinds is the number of distinct control-kind slots, for
// callers that iterate every ledger (the conformance auditor).
const NumControlKinds = int(numKinds)

// DropReason classifies why a data packet was dropped. Reason-resolved
// drop counters let the conformance auditor separate expected losses
// (no route during discovery, TTL expiry) from the losses that indicate
// an accounting bug when they go missing (crash/Reset wipes).
type DropReason uint8

// Data-packet drop reasons across all four protocols.
const (
	DropOther DropReason = iota
	DropNoRoute
	DropTTL
	DropQueueOverflow
	DropLinkBreak
	DropMalformed
	DropNodeDown
	DropReset
	DropAdversary

	numReasons
)

// NumDropReasons is the number of distinct drop-reason slots.
const NumDropReasons = int(numReasons)

// String names the reason for reports.
func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl"
	case DropQueueOverflow:
		return "queue-overflow"
	case DropLinkBreak:
		return "link-break"
	case DropMalformed:
		return "malformed"
	case DropNodeDown:
		return "node-down"
	case DropReset:
		return "reset"
	case DropAdversary:
		return "adversary"
	default:
		return "other"
	}
}

// PacketFate is the recorded lifecycle state of one (Src, ID) data
// packet: never seen, initiated and not yet terminal, or terminal.
type PacketFate uint8

// Packet fates, in lifecycle order.
const (
	FateNone PacketFate = iota
	FateInFlight
	FateDelivered
	FateDropped
)

// Collector accumulates the counters for one simulation run. Its JSON
// form is the journal's cell record (internal/resilience) and what the
// repository benchmark hashes into its digest, so field order and names
// are a file format: every counter is an integer, and float64 values
// (SeqnoSum) round-trip losslessly through encoding/json's shortest-form
// formatting, which is what lets a sweep resumed from its journal render
// byte-identical tables.
type Collector struct {
	// Data plane.
	DataInitiated   uint64        `json:"data_initiated"`   // CBR packets handed to the network layer
	DataDelivered   uint64        `json:"data_delivered"`   // CBR packets received at their destination
	DataTransmitted uint64        `json:"data_transmitted"` // hop-wise data transmissions
	DataDropped     uint64        `json:"data_dropped"`     // packets dropped (no route, TTL, queue)
	TotalLatency    time.Duration `json:"total_latency"`    // sum of end-to-end latencies of delivered packets

	// Control plane, indexed by ControlKind; read them through
	// ControlTransmitted, ControlInitiated and ControlDropped.
	CtrlTransmitted [numKinds]uint64 `json:"ctrl_transmitted"`
	CtrlInitiated   [numKinds]uint64 `json:"ctrl_initiated"`
	CtrlDropped     [numKinds]uint64 `json:"ctrl_dropped"`

	// RREPUsable counts hop-wise usable RREP receptions: a RREP counts once
	// at every node along its path that can use it to install or improve a
	// route (the paper's "RREP Recv" numerator).
	RREPUsable uint64 `json:"rrep_usable"`

	// Latency distribution of delivered packets (p50/p95/p99 reporting).
	Latency LatencyHistogram `json:"latency"`

	// Path-length accounting for delivered packets: HopsSum/DataDelivered
	// is the mean path length.
	HopsSum uint64 `json:"hops_sum"`

	// Destination sequence number samples (Fig. 7). Protocols that use
	// destination sequence numbers record the counter value of every
	// routing-table entry at the end of the run.
	SeqnoSum   float64 `json:"seqno_sum"`
	SeqnoCount uint64  `json:"seqno_count"`

	// Continuous invariant auditing (internal/fault): table snapshots
	// taken by the loopcheck auditor and the violations they exposed.
	// A loop violation is a cycle in some destination's successor graph;
	// an ordering violation is a (seq, fd) label pair breaking the
	// paper's Theorem 2 criterion along a successor edge.
	AuditSnapshots     uint64 `json:"audit_snapshots"`
	LoopViolations     uint64 `json:"loop_violations"`
	OrderingViolations uint64 `json:"ordering_violations"`

	// Packet-conservation ledger: every initiated data packet is tracked
	// by (Src, ID) until its first terminal event — delivery or drop —
	// and only that first event counts. Repeat terminal events (a copy
	// duplicated by the radio fault hook arriving after the original, or
	// a stale copy dropped after delivery) land in DuplicateDeliveries /
	// LateDrops instead of inflating the paper's metrics.
	DuplicateDeliveries uint64 `json:"duplicate_deliveries"` // deliveries suppressed: packet already terminal
	LateDrops           uint64 `json:"late_drops"`           // drops suppressed: packet already terminal

	// Adversary-resilience counters (internal/adversary). A feasibility
	// rejection is an advertisement LDR's NDC refused — under seqno
	// forgery or stale-label replay these count refused forgeries; the
	// suppression counters tally control messages discarded by the
	// per-neighbor rate limiters before processing. All three are
	// receive-side events, so they never unbalance the control ledgers
	// (initiated/transmitted/dropped are all sender-side).
	FeasibilityRejections uint64 `json:"feasibility_rejections"` // LDR NDC refusals of advertisements
	RREQSuppressed        uint64 `json:"rreq_suppressed"`        // RREQs discarded by receive rate limiting
	RERRSuppressed        uint64 `json:"rerr_suppressed"`        // RERRs discarded by receive damping

	// DropByReason is indexed by DropReason (read it through DroppedBy);
	// InFlightCount is the gauge behind InFlight. fates holds one row per
	// source, indexed by packet ID: IDs are per-source counters issued
	// from 1 upward, so a row is dense and grows by append, and an ID
	// past the end of its row has FateNone. The rows are not serialized:
	// they exist to dedup terminal events during the run and are dead
	// weight once the run has ended, so a journaled collector reports
	// FateNone for every packet.
	DropByReason  [numReasons]uint64 `json:"drop_by_reason"`
	fates         [][]PacketFate     `json:"-"`
	InFlightCount int64              `json:"in_flight"` // initiated packets with no terminal event yet
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

func (c *Collector) fate(src int, id uint64) PacketFate {
	if src >= len(c.fates) || id >= uint64(len(c.fates[src])) {
		return FateNone
	}
	return c.fates[src][id]
}

// setFate records f for (src, id), growing src's row to cover id. The
// row grows by append, one element at a time, so recording the next ID
// of a source allocates only when the row's capacity runs out.
func (c *Collector) setFate(src int, id uint64, f PacketFate) {
	for src >= len(c.fates) {
		c.fates = append(c.fates, nil)
	}
	row := c.fates[src]
	if id < uint64(len(row)) {
		row[id] = f
		return
	}
	for uint64(len(row)) < id {
		row = append(row, FateNone)
	}
	c.fates[src] = append(row, f)
}

// NoteInitiated records the origination of data packet (src, id) and
// opens its conservation ledger entry.
func (c *Collector) NoteInitiated(src int, id uint64) {
	c.DataInitiated++
	c.setFate(src, id, FateInFlight)
	c.InFlightCount++
}

// NoteDelivered records an end-to-end delivery of packet (src, id). It
// returns false — and counts a DuplicateDelivery instead of a delivery —
// when the packet already had a terminal event: the first terminal event
// wins, so a radio-duplicated copy arriving after the original cannot
// inflate DataDelivered or the latency sums. Packets never initiated
// through the ledger (direct injection in tests) count normally.
func (c *Collector) NoteDelivered(src int, id uint64) bool {
	switch c.fate(src, id) {
	case FateDelivered, FateDropped:
		c.DuplicateDeliveries++
		return false
	case FateInFlight:
		c.InFlightCount--
	}
	c.setFate(src, id, FateDelivered)
	c.DataDelivered++
	return true
}

// NoteDropped records the loss of packet (src, id) for the given reason.
// It returns false — and counts a LateDrop instead of a drop — when the
// packet already had a terminal event (a stale duplicate copy dying
// after the original was delivered or dropped).
func (c *Collector) NoteDropped(src int, id uint64, reason DropReason) bool {
	switch c.fate(src, id) {
	case FateDelivered, FateDropped:
		c.LateDrops++
		return false
	case FateInFlight:
		c.InFlightCount--
	}
	c.setFate(src, id, FateDropped)
	c.DataDropped++
	if reason < numReasons {
		c.DropByReason[reason]++
	} else {
		c.DropByReason[DropOther]++
	}
	return true
}

// FateOf returns the recorded fate of packet (src, id).
func (c *Collector) FateOf(src int, id uint64) PacketFate { return c.fate(src, id) }

// InFlight returns the number of initiated data packets with no terminal
// event yet. Together with the terminal counters it closes the paper's
// conservation equation: DataInitiated == DataDelivered + DataDropped +
// InFlight (it can go negative only if packets bypass NoteInitiated,
// which scenario runs never do).
func (c *Collector) InFlight() int64 { return c.InFlightCount }

// DroppedBy returns the drop count for one reason.
func (c *Collector) DroppedBy(reason DropReason) uint64 {
	if reason >= numReasons {
		reason = DropOther
	}
	return c.DropByReason[reason]
}

// CountControlTransmit records one hop-wise control transmission.
func (c *Collector) CountControlTransmit(k ControlKind) {
	c.CtrlTransmitted[kindIndex(k)]++
}

// CountControlInitiate records the first transmission of a control packet.
func (c *Collector) CountControlInitiate(k ControlKind) {
	c.CtrlInitiated[kindIndex(k)]++
}

// CountControlDrop records a control packet discarded before it reached
// the medium (a jitter queue wiped by a crash, for example). The
// conformance ledger needs these so initiated packets never appear to
// vanish without a transmit, a drop, or a queue slot accounting for
// them.
func (c *Collector) CountControlDrop(k ControlKind) {
	c.CtrlDropped[kindIndex(k)]++
}

// ObserveSeqno records one destination sequence-number sample.
func (c *Collector) ObserveSeqno(v float64) {
	c.SeqnoSum += v
	c.SeqnoCount++
}

// ControlTransmitted returns the hop-wise transmission count for a kind.
func (c *Collector) ControlTransmitted(k ControlKind) uint64 {
	return c.CtrlTransmitted[kindIndex(k)]
}

// ControlInitiated returns the initiation count for a kind.
func (c *Collector) ControlInitiated(k ControlKind) uint64 {
	return c.CtrlInitiated[kindIndex(k)]
}

// ControlDropped returns the pre-transmission discard count for a kind.
func (c *Collector) ControlDropped(k ControlKind) uint64 {
	return c.CtrlDropped[kindIndex(k)]
}

// TotalControlTransmitted sums hop-wise transmissions over all kinds.
func (c *Collector) TotalControlTransmitted() uint64 {
	var sum uint64
	for _, v := range c.CtrlTransmitted {
		sum += v
	}
	return sum
}

// DeliveryRatio is the fraction of initiated CBR packets delivered.
func (c *Collector) DeliveryRatio() float64 {
	if c.DataInitiated == 0 {
		return 0
	}
	return float64(c.DataDelivered) / float64(c.DataInitiated)
}

// NetworkLoad is total control packets transmitted per received data
// packet (the paper's "network load").
func (c *Collector) NetworkLoad() float64 {
	if c.DataDelivered == 0 {
		return float64(c.TotalControlTransmitted())
	}
	return float64(c.TotalControlTransmitted()) / float64(c.DataDelivered)
}

// RREQLoad is RREQs transmitted per received data packet.
func (c *Collector) RREQLoad() float64 {
	if c.DataDelivered == 0 {
		return float64(c.ControlTransmitted(RREQ))
	}
	return float64(c.ControlTransmitted(RREQ)) / float64(c.DataDelivered)
}

// MeanLatency is the mean end-to-end latency of delivered data packets.
func (c *Collector) MeanLatency() time.Duration {
	if c.DataDelivered == 0 {
		return 0
	}
	return c.TotalLatency / time.Duration(c.DataDelivered)
}

// RREPInitPerRREQ is RREPs initiated per RREQ initiated ("RREP Init").
func (c *Collector) RREPInitPerRREQ() float64 {
	if c.ControlInitiated(RREQ) == 0 {
		return 0
	}
	return float64(c.ControlInitiated(RREP)) / float64(c.ControlInitiated(RREQ))
}

// RREPRecvPerRREQ is hop-wise usable RREPs received per RREQ initiated
// ("RREP Recv").
func (c *Collector) RREPRecvPerRREQ() float64 {
	if c.ControlInitiated(RREQ) == 0 {
		return 0
	}
	return float64(c.RREPUsable) / float64(c.ControlInitiated(RREQ))
}

// MeanHops is the mean hop count of delivered data packets.
func (c *Collector) MeanHops() float64 {
	if c.DataDelivered == 0 {
		return 0
	}
	return float64(c.HopsSum) / float64(c.DataDelivered)
}

// MeanSeqno is the mean recorded destination sequence number (Fig. 7).
func (c *Collector) MeanSeqno() float64 {
	if c.SeqnoCount == 0 {
		return 0
	}
	return c.SeqnoSum / float64(c.SeqnoCount)
}

func kindIndex(k ControlKind) int {
	if k <= 0 || k >= numKinds {
		return int(OtherControl)
	}
	return int(k)
}
