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

// Generator drives the CBR flows over a network.
type Generator struct {
	sim   *sim.Simulator
	nodes []*routing.Node
	cfg   Config
	rng   *rng.Source

	FlowsStarted int
}

// NewGenerator builds a generator. Call Start to install the flows.
func NewGenerator(s *sim.Simulator, nodes []*routing.Node, cfg Config, src *rng.Source) *Generator {
	return &Generator{sim: s, nodes: nodes, cfg: cfg, rng: src}
}

// Start launches the configured number of concurrent flows. Flow start
// times are staggered across the first flow interval to avoid the
// synchronized-origination artifact of starting all flows at once.
func (g *Generator) Start() {
	for i := 0; i < g.cfg.Flows; i++ {
		stagger := time.Duration(g.rng.Float64() * float64(Interval))
		g.sim.At(Start+stagger, g.startFlow)
	}
}

func (g *Generator) startFlow() {
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
	g.FlowsStarted++
	switch g.cfg.Pattern {
	case Bursty:
		g.burstOn(src, dst, end)
	case RequestResponse:
		g.reqTick(src, dst, end)
	default:
		g.tick(src, dst, end)
	}
}

func (g *Generator) tick(src, dst int, end time.Duration) {
	now := g.sim.Now()
	if now >= end {
		// Flow over; keep the offered load constant with a fresh flow.
		g.startFlow()
		return
	}
	g.nodes[src].OriginateData(routing.NodeID(dst), PacketBytes)
	g.sim.Schedule(Interval, func() { g.tick(src, dst, end) })
}

// burstOn begins an on period: pick its exponential length, then send at
// the CBR interval until it expires, after which burstOff idles the flow.
func (g *Generator) burstOn(src, dst int, end time.Duration) {
	burstEnd := g.sim.Now() + time.Duration(g.rng.ExpFloat64()*float64(MeanBurst))
	if burstEnd > end {
		burstEnd = end
	}
	g.burstTick(src, dst, end, burstEnd)
}

func (g *Generator) burstTick(src, dst int, end, burstEnd time.Duration) {
	now := g.sim.Now()
	if now >= end {
		g.startFlow()
		return
	}
	if now >= burstEnd {
		g.burstOff(src, dst, end)
		return
	}
	g.nodes[src].OriginateData(routing.NodeID(dst), PacketBytes)
	g.sim.Schedule(Interval, func() { g.burstTick(src, dst, end, burstEnd) })
}

// burstOff idles the flow for an exponential gap, long enough for routes
// to go stale, then starts the next burst.
func (g *Generator) burstOff(src, dst int, end time.Duration) {
	gap := time.Duration(g.rng.ExpFloat64() * float64(MeanGap))
	g.sim.Schedule(gap, func() {
		if g.sim.Now() >= end {
			g.startFlow()
			return
		}
		g.burstOn(src, dst, end)
	})
}

// reqTick originates one request and schedules the destination's reply.
// The reply fires whether or not the request is ever delivered: the
// generator models the application layer, and coupling origination events
// to delivery outcomes would make the workload depend on routing behavior
// (breaking replay determinism across protocols and fault schedules).
func (g *Generator) reqTick(src, dst int, end time.Duration) {
	now := g.sim.Now()
	if now >= end {
		g.startFlow()
		return
	}
	g.nodes[src].OriginateData(routing.NodeID(dst), PacketBytes)
	g.sim.Schedule(ResponseDelay, func() {
		if g.sim.Now() < g.cfg.Stop {
			g.nodes[dst].OriginateData(routing.NodeID(src), ResponseBytes)
		}
	})
	g.sim.Schedule(Interval, func() { g.reqTick(src, dst, end) })
}
