package traffic_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/traffic"
)

// sinkProtocol swallows all packets, recording originations.
type sinkProtocol struct {
	originated []*routing.DataPacket
}

func (p *sinkProtocol) Start()                                         {}
func (p *sinkProtocol) Stop()                                          {}
func (p *sinkProtocol) HandleControl(routing.NodeID, routing.Message)  {}
func (p *sinkProtocol) HandleData(routing.NodeID, *routing.DataPacket) {}
func (p *sinkProtocol) Originate(pkt *routing.DataPacket)              { p.originated = append(p.originated, pkt) }

func testNetwork(n int) (*routing.Network, []*sinkProtocol) {
	var sinks []*sinkProtocol
	nw := routing.NewNetwork(n, mobility.Line(n, 100), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			s := &sinkProtocol{}
			sinks = append(sinks, s)
			return s
		})
	return nw, sinks
}

func TestOfferedLoadMatchesConfiguration(t *testing.T) {
	nw, sinks := testNetwork(10)
	cfg := traffic.Config{Flows: 5, Stop: 60 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(2))
	gen.Start()
	nw.Sim.Run(60 * time.Second)

	var total int
	for _, s := range sinks {
		total += len(s.originated)
	}
	// 5 flows × 4 pkt/s × ~59 s ≈ 1180 packets. Flow-restart gaps lose a
	// few; anything within 10% is a correct offered load.
	want := 1180.0
	if float64(total) < want*0.9 || float64(total) > want*1.1 {
		t.Fatalf("originated %d packets, want ≈ %.0f", total, want)
	}
	if nw.Collector.DataInitiated != uint64(total) {
		t.Fatalf("collector counted %d initiated, protocols saw %d",
			nw.Collector.DataInitiated, total)
	}
}

func TestFlowsNeverSendToSelf(t *testing.T) {
	nw, sinks := testNetwork(4)
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, traffic.Config{Flows: 8, Stop: 120 * time.Second}, rng.New(3))
	gen.Start()
	nw.Sim.Run(120 * time.Second)

	for id, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.Dst == routing.NodeID(id) {
				t.Fatalf("node %d originated a packet to itself", id)
			}
			if pkt.Src != routing.NodeID(id) {
				t.Fatalf("packet src %d does not match originating node %d", pkt.Src, id)
			}
			if pkt.Bytes != 512 {
				t.Fatalf("packet size %d, want 512", pkt.Bytes)
			}
		}
	}
}

func TestNoPacketsAfterStop(t *testing.T) {
	nw, sinks := testNetwork(6)
	cfg := traffic.Config{Flows: 3, Stop: 30 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(4))
	gen.Start()
	nw.Sim.Run(90 * time.Second)

	for _, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.SentAt >= 30*time.Second {
				t.Fatalf("packet originated at %v, after the 30s stop", pkt.SentAt)
			}
		}
	}
}

func TestFlowsRestartToKeepLoadConstant(t *testing.T) {
	nw, _ := testNetwork(8)
	// Thirty mean flow lifetimes, so every flow slot restarts many times.
	const stop = 30 * traffic.MeanFlowLife
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, traffic.Config{Flows: 2, Stop: stop}, rng.New(5))
	gen.Start()
	nw.Sim.Run(stop)

	if gen.FlowsStarted < 30 {
		t.Fatalf("only %d flows started over %v with a %v mean life", gen.FlowsStarted, stop, traffic.MeanFlowLife)
	}
	// Offered load must stay ≈ 2 flows × 4 pkt/s × 3000 s = 24000.
	got := float64(nw.Collector.DataInitiated)
	if got < 24000*0.85 || got > 24000*1.15 {
		t.Fatalf("initiated %v packets, want ≈ 24000 despite flow churn", got)
	}
}

func TestBurstyDutyCycleReducesLoad(t *testing.T) {
	nw, _ := testNetwork(10)
	cfg := traffic.Config{Pattern: traffic.Bursty, Flows: 5, Stop: 300 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(6))
	gen.Start()
	nw.Sim.Run(300 * time.Second)

	// Full CBR would offer 5 × 4 pkt/s × 299 s ≈ 5980 packets; a 2s-on /
	// 3s-off duty cycle should land near 40% of that. Accept a broad band —
	// the point is that gating visibly reduces load without silencing it.
	got := float64(nw.Collector.DataInitiated)
	if got < 5980*0.2 || got > 5980*0.6 {
		t.Fatalf("bursty initiated %v packets, want ≈ 40%% of 5980", got)
	}
}

func TestRequestResponseGeneratesReplies(t *testing.T) {
	nw, sinks := testNetwork(10)
	cfg := traffic.Config{Pattern: traffic.RequestResponse, Flows: 3, Stop: 60 * time.Second}
	gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(7))
	gen.Start()
	nw.Sim.Run(60 * time.Second)

	var requests, responses int
	pairs := make(map[[2]routing.NodeID]bool)
	for _, s := range sinks {
		for _, pkt := range s.originated {
			if pkt.Bytes == 512 {
				requests++
				pairs[[2]routing.NodeID{pkt.Src, pkt.Dst}] = true
			}
		}
	}
	for _, s := range sinks {
		for _, pkt := range s.originated {
			switch pkt.Bytes {
			case 512:
			case 1024:
				responses++
				if !pairs[[2]routing.NodeID{pkt.Dst, pkt.Src}] {
					t.Fatalf("response %d→%d has no matching request", pkt.Src, pkt.Dst)
				}
			default:
				t.Fatalf("unexpected packet size %d", pkt.Bytes)
			}
		}
	}
	if requests == 0 || responses == 0 {
		t.Fatalf("requests=%d responses=%d, want both nonzero", requests, responses)
	}
	// Every request inside the run window gets exactly one reply; only
	// requests in the final ResponseDelay before Stop can go unanswered.
	if responses < requests*9/10 {
		t.Fatalf("%d responses for %d requests", responses, requests)
	}
}

func TestPatternsStopOriginatingAtStop(t *testing.T) {
	for _, pat := range traffic.Patterns() {
		nw, sinks := testNetwork(6)
		cfg := traffic.Config{Pattern: pat, Flows: 3, Stop: 30 * time.Second}
		gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(8))
		gen.Start()
		nw.Sim.Run(90 * time.Second)
		for _, s := range sinks {
			for _, pkt := range s.originated {
				if pkt.SentAt >= 30*time.Second {
					t.Fatalf("%s: packet originated at %v, after the 30s stop", pat, pkt.SentAt)
				}
			}
		}
	}
}

func TestPatternsDeterministic(t *testing.T) {
	for _, pat := range traffic.Patterns() {
		counts := [2]uint64{}
		for trial := 0; trial < 2; trial++ {
			nw, _ := testNetwork(8)
			cfg := traffic.Config{Pattern: pat, Flows: 4, Stop: 60 * time.Second}
			gen := traffic.NewGenerator(nw.Sim, nw.Nodes, cfg, rng.New(9))
			gen.Start()
			nw.Sim.Run(60 * time.Second)
			counts[trial] = nw.Collector.DataInitiated
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s: runs differ: %d vs %d packets", pat, counts[0], counts[1])
		}
		if counts[0] == 0 {
			t.Fatalf("%s originated nothing", pat)
		}
	}
}
