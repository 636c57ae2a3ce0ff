// Package traffic generates application workloads for the simulator.
//
// The default pattern is the paper's constant-bit-rate evaluation load: a
// fixed number of concurrent CBR flows of 512-byte packets at 4 packets
// per second, with flow lifetimes drawn from an exponential distribution
// with a 100-second mean. When a flow ends, a replacement flow with fresh
// random endpoints starts, keeping the offered load constant (10 flows ≈
// 40 pkt/s aggregate, 30 flows ≈ 120 pkt/s).
package traffic

import (
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// The paper's workload (§4).
const (
	PacketBytes  = 512                    // CBR packet payload size
	Interval     = 250 * time.Millisecond // inter-packet gap within a flow: 4 pkt/s
	MeanFlowLife = 100 * time.Second      // mean of the exponential flow length
	Start        = time.Second            // workload warm-up offset
)

// Config is what a scenario varies about the workload.
type Config struct {
	Flows int           // concurrent flows
	Stop  time.Duration // no packets are originated after this time
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
	next     phase
}

// phase is what a flow's next event does.
type phase uint8

const (
	starting phase = iota // draw endpoints and a lifetime (startFlow)
	sending               // originate one packet, or end the flow
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
	step(g, i)
}

// send originates one packet of the flow and schedules the next.
func (g *Generator) send(f *flow, i uint64) {
	g.nodes[f.src].OriginateData(routing.NodeID(f.dst), PacketBytes)
	g.later(f, i, sending, Interval)
}
