// Package traffic generates application workloads for the simulator.
//
// The default pattern is the paper's constant-bit-rate evaluation load: a
// fixed number of concurrent CBR flows of 512-byte packets at 4 packets
// per second, with flow lifetimes drawn from an exponential distribution
// with a 100-second mean. When a flow ends, a replacement flow with fresh
// random endpoints starts, keeping the offered load constant (10 flows ≈
// 40 pkt/s aggregate, 30 flows ≈ 120 pkt/s).
//
// Two further patterns stress routing differently: Bursty gates each flow
// through exponential on/off periods, so routes go cold and must be
// re-validated when a burst starts; RequestResponse pairs every request
// with a reverse-direction reply, exercising bidirectional route state
// (precursor lists, reverse routes) that one-way CBR never touches.
package traffic

import (
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// Pattern names a traffic generation pattern.
type Pattern string

// The supported patterns.
const (
	CBR             Pattern = "cbr"     // constant bit rate (the paper's workload)
	Bursty          Pattern = "bursty"  // exponential on/off gating of each flow
	RequestResponse Pattern = "reqresp" // request packets answered by reverse-direction replies
)

// Patterns lists the valid pattern names, for flag validation and fuzzer
// draws.
func Patterns() []Pattern { return []Pattern{CBR, Bursty, RequestResponse} }

// The paper's workload (§4) and the two patterns built on it.
const (
	PacketBytes  = 512                    // payload size (requests, CBR packets)
	Interval     = 250 * time.Millisecond // inter-packet gap within a flow / burst: 4 pkt/s
	MeanFlowLife = 100 * time.Second      // mean of the exponential flow length
	Start        = time.Second            // workload warm-up offset

	// Bursty: flows alternate exponential on periods (sending at Interval)
	// and silent off periods.
	MeanBurst = 2 * time.Second
	MeanGap   = 3 * time.Second

	// RequestResponse: each request's destination originates a
	// ResponseBytes reply after ResponseDelay. The reply is scheduled
	// unconditionally (an application-level model: whether the request
	// arrived is invisible to the generator), which keeps origination
	// events a pure function of the seed.
	ResponseBytes = 1024
	ResponseDelay = 30 * time.Millisecond
)

// Config is what a scenario varies about the workload.
type Config struct {
	Pattern Pattern       // generation pattern; "" selects CBR
	Flows   int           // concurrent flows
	Stop    time.Duration // no packets are originated after this time
}

// Generator drives the flows over a network. Each concurrent flow has one
// record for the whole run: a flow that ends hands its record to its
// replacement, and every event of a flow is one sim.ScheduleTransient of
// the package-level step with the generator and the record's index, so a
// warm flow allocates nothing per packet.
type Generator struct {
	sim   *sim.Simulator
	nodes []*routing.Node
	cfg   Config
	rng   *rng.Source
	flows []flow

	FlowsStarted int
}

// flow is one concurrent flow's record: its endpoints and lifetime, and
// what its next event does.
type flow struct {
	src, dst int
	end      time.Duration // the flow ends at its first event at or after end
	burstEnd time.Duration // Bursty: the current on period ends here
	next     phase
}

// phase is what a flow's next event does.
type phase uint8

const (
	starting phase = iota // draw endpoints and a lifetime (startFlow)
	sending               // originate one packet, or end the flow or the burst
	waking                // Bursty: an off period is over (burstOff)
)

// NewGenerator builds a generator. Call Start to install the flows.
func NewGenerator(s *sim.Simulator, nodes []*routing.Node, cfg Config, src *rng.Source) *Generator {
	return &Generator{sim: s, nodes: nodes, cfg: cfg, rng: src}
}

// Start launches the configured number of concurrent flows. Flow start
// times are staggered across the first flow interval to avoid the
// synchronized-origination artifact of starting all flows at once.
func (g *Generator) Start() {
	g.flows = make([]flow, g.cfg.Flows)
	for i := range g.flows {
		stagger := time.Duration(g.rng.Float64() * float64(Interval))
		g.sim.ScheduleTransient(Start+stagger-g.sim.Now(), step, g, uint64(i))
	}
}

// step runs flow i's next event.
func step(arg any, i uint64) {
	g := arg.(*Generator)
	f := &g.flows[i]
	now := g.sim.Now()
	switch {
	case f.next == starting, now >= f.end:
		// A first flow, or one that is over: keep the offered load
		// constant with a fresh flow in the record.
		g.startFlow(f, i)
	case f.next == waking:
		g.burstOn(f, i)
	case g.cfg.Pattern == Bursty && now >= f.burstEnd:
		g.burstOff(f, i)
	default:
		g.send(f, i)
	}
}

// later schedules flow i's next event, a phase p, after delay.
func (g *Generator) later(f *flow, i uint64, p phase, delay time.Duration) {
	f.next = p
	g.sim.ScheduleTransient(delay, step, g, i)
}

// startFlow draws flow record f's endpoints and lifetime and sends its
// first packet.
func (g *Generator) startFlow(f *flow, i uint64) {
	now := g.sim.Now()
	if now >= g.cfg.Stop {
		return
	}
	src := g.rng.Intn(len(g.nodes))
	dst := g.rng.Intn(len(g.nodes) - 1)
	if dst >= src {
		dst++
	}
	life := time.Duration(g.rng.ExpFloat64() * float64(MeanFlowLife))
	end := now + life
	if end > g.cfg.Stop {
		end = g.cfg.Stop
	}
	*f = flow{src: src, dst: dst, end: end, next: sending}
	g.FlowsStarted++
	if g.cfg.Pattern == Bursty {
		g.burstOn(f, i)
		return
	}
	step(g, i)
}

// send originates one packet of the flow and schedules the next; under
// RequestResponse the destination's reply is scheduled first.
func (g *Generator) send(f *flow, i uint64) {
	g.nodes[f.src].OriginateData(routing.NodeID(f.dst), PacketBytes)
	if g.cfg.Pattern == RequestResponse {
		g.sim.ScheduleTransient(ResponseDelay, reply, g, uint64(f.dst)<<32|uint64(f.src))
	}
	g.later(f, i, sending, Interval)
}

// burstOn begins an on period: pick its exponential length, then send at
// the CBR interval until it expires, after which burstOff idles the flow.
func (g *Generator) burstOn(f *flow, i uint64) {
	f.burstEnd = g.sim.Now() + time.Duration(g.rng.ExpFloat64()*float64(MeanBurst))
	if f.burstEnd > f.end {
		f.burstEnd = f.end
	}
	f.next = sending
	step(g, i)
}

// burstOff idles the flow for an exponential gap, long enough for routes
// to go stale, then starts the next burst.
func (g *Generator) burstOff(f *flow, i uint64) {
	gap := time.Duration(g.rng.ExpFloat64() * float64(MeanGap))
	g.later(f, i, waking, gap)
}

// reply originates a RequestResponse reply from the request's destination
// (the high half of u) to its source (the low half). It fires whether or
// not the request is ever delivered: the generator models the application
// layer, and coupling origination events to delivery outcomes would make
// the workload depend on routing behavior (breaking replay determinism
// across protocols and fault schedules).
func reply(arg any, u uint64) {
	g := arg.(*Generator)
	if g.sim.Now() < g.cfg.Stop {
		g.nodes[u>>32].OriginateData(routing.NodeID(uint32(u)), ResponseBytes)
	}
}
