package routing

import "time"

// TraceEventKind labels a packet-lifecycle event.
type TraceEventKind uint8

// Packet lifecycle events.
const (
	TraceOriginate TraceEventKind = iota + 1
	TraceForward
	TraceDeliver
	TraceDrop
)

// String returns the event's display name.
func (k TraceEventKind) String() string {
	switch k {
	case TraceOriginate:
		return "originate"
	case TraceForward:
		return "forward"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	default:
		return "?"
	}
}

// TraceEvent is one step in a data packet's life. (Src, ID) identifies
// the packet uniquely network-wide.
type TraceEvent struct {
	At   time.Duration
	Kind TraceEventKind
	Node NodeID // where the event happened
	Src  NodeID // packet origin
	Dst  NodeID // packet destination
	ID   uint64 // origin-assigned packet id
	Next NodeID // forward: the chosen next hop

	// Reason classifies drop events; zero for other kinds.
	Reason DropReason
}

// Tracer receives packet lifecycle events. Implementations must be cheap:
// they run inline on the simulator goroutine.
type Tracer interface {
	Trace(TraceEvent)
}

// SetTracer installs a tracer on every node of the network (nil disables).
func (nw *Network) SetTracer(t Tracer) {
	for _, n := range nw.Nodes {
		n.tracer = t
	}
}

// SetTracer installs a tracer on this node (nil disables).
func (n *Node) SetTracer(t Tracer) { n.tracer = t }

func (n *Node) trace(kind TraceEventKind, pkt *DataPacket, next NodeID, reason DropReason) {
	if n.tracer == nil {
		return
	}
	n.tracer.Trace(TraceEvent{
		At:     n.sim.Now(),
		Kind:   kind,
		Node:   n.id,
		Src:    pkt.Src,
		Dst:    pkt.Dst,
		ID:     pkt.ID,
		Next:   next,
		Reason: reason,
	})
}

// Recorder is a bounded in-memory Tracer, retaining the most recent
// Capacity events (FIFO eviction).
type Recorder struct {
	Capacity int
	events   []TraceEvent
	dropped  uint64
}

var _ Tracer = (*Recorder)(nil)

// NewRecorder returns a Recorder holding up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{Capacity: capacity}
}

// Trace implements Tracer.
func (r *Recorder) Trace(ev TraceEvent) {
	if len(r.events) >= r.Capacity {
		r.events = r.events[1:]
		r.dropped++
	}
	r.events = append(r.events, ev)
}

// Events returns the retained events in arrival order (a copy).
func (r *Recorder) Events() []TraceEvent {
	return append([]TraceEvent(nil), r.events...)
}

// Evicted returns how many events were discarded to stay within capacity.
func (r *Recorder) Evicted() uint64 { return r.dropped }

// PacketPath reconstructs the hop sequence of packet (src, id) from the
// retained events: the origin followed by each forwarding node, ending
// with the destination if the packet was delivered.
func (r *Recorder) PacketPath(src NodeID, id uint64) []NodeID {
	var path []NodeID
	for _, ev := range r.events {
		if ev.Src != src || ev.ID != id {
			continue
		}
		switch ev.Kind {
		case TraceOriginate, TraceForward, TraceDeliver:
			if len(path) == 0 || path[len(path)-1] != ev.Node {
				path = append(path, ev.Node)
			}
		}
	}
	return path
}
