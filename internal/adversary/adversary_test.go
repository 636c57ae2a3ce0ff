package adversary_test

// Attack-property tests for the Byzantine-node subsystem: LDR's honest
// subgraph must stay loop-free under every attack profile, the forged-
// seqno loop AODV is known to form must reproduce from the committed
// regression seed, every protocol's packet accounting must balance under
// attack, the receive-side rate limiters must actually suppress a
// neighbour's flood, and attacked runs must be bit-equal across repeats.

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// attackConfig is the reduced-scale rig the property tests run, matching
// the fault suite's: 25 nodes on a 1000 m × 300 m strip, dense enough
// that compromised nodes sit on real multi-hop routes.
func attackConfig(proto scenario.ProtocolName, seed int64, plan *adversary.Plan) scenario.Config {
	return scenario.Config{
		Protocol:      proto,
		Nodes:         25,
		Terrain:       mobility.Terrain{Width: 1000, Height: 300},
		Flows:         5,
		PauseTime:     0,
		MinSpeed:      1,
		MaxSpeed:      20,
		SimTime:       20 * time.Second,
		Seed:          seed,
		AdversaryPlan: plan,
		AuditCadence:  50 * time.Millisecond,
	}
}

func attackPlan(t *testing.T, profile string) *adversary.Plan {
	t.Helper()
	plan, err := adversary.Profile(profile, 25, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

// TestLDRCleanUnderEveryAdversary is the headline property from the
// paper's §5: destination-controlled sequence numbers plus the NDC
// feasibility check keep the honest successor graph loop-free and
// ordering-correct no matter what compromised neighbors forge. The
// conformance harness audits conservation in the same
// runs, so attacked drops must also stay fully accounted.
func TestLDRCleanUnderEveryAdversary(t *testing.T) {
	for _, profile := range adversary.ProfileNames() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", profile, seed), func(t *testing.T) {
				spec := conformance.Spec{
					Protocol: string(scenario.LDR), Nodes: 25, Flows: 5,
					SimTimeSec: 20, Seed: seed,
					Profile: "none", Adversary: profile, AuditMS: 50,
				}
				r, err := conformance.CheckSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				if r.Total != 0 {
					t.Errorf("conservation violated under %s: %d violations (first: %v)",
						profile, r.Total, r.Violations)
				}
				c := r.Collector
				if c.LoopViolations != 0 || c.OrderingViolations != 0 {
					t.Errorf("LDR honest subgraph violated invariants under %s: loops=%d ordering=%d",
						profile, c.LoopViolations, c.OrderingViolations)
				}
			})
		}
	}
}

// TestAODVSeqnoForgeryLoopRegression replays the committed shrunk
// reproducer: forged maximal-seqno replies with varying hop-count lies
// stitch honest AODV nodes into successor-graph loops, while packet
// conservation stays clean — the failure is protocol logic, not
// accounting.
func TestAODVSeqnoForgeryLoopRegression(t *testing.T) {
	spec, err := conformance.LoadSpec(filepath.Join("testdata", "aodv-seqno-loop.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := conformance.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 {
		t.Errorf("conservation violated: %d violations (first: %v)", r.Total, r.Violations)
	}
	if r.Collector.LoopViolations == 0 {
		t.Errorf("regression seed no longer reproduces the AODV forged-seqno loop (spec %s)", spec)
	}
}

// TestLDRImmuneToCommittedAODVLoop runs the very same reproducer with
// the protocol swapped to LDR: zero loop violations, with the NDC
// feasibility counter showing the forged advertisements were seen and
// refused rather than never offered.
func TestLDRImmuneToCommittedAODVLoop(t *testing.T) {
	spec, err := conformance.LoadSpec(filepath.Join("testdata", "aodv-seqno-loop.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Protocol = string(scenario.LDR)
	r, err := conformance.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Collector
	if r.Total != 0 || c.LoopViolations != 0 || c.OrderingViolations != 0 {
		t.Errorf("LDR on the AODV loop seed: conservation=%d loops=%d ordering=%d",
			r.Total, c.LoopViolations, c.OrderingViolations)
	}
	if c.FeasibilityRejections == 0 {
		t.Error("expected NDC feasibility rejections while refusing forged advertisements, got none")
	}
}

// TestConservationUnderByzantine: every protocol's packet ledger must
// balance with Byzantine nodes forging seqnos — for DSR and OLSR, which
// have no sequence number to forge, that checks the wrapper's held-data
// and held-control delegation under the census.
func TestConservationUnderByzantine(t *testing.T) {
	for _, proto := range scenario.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			spec := conformance.Spec{
				Protocol: string(proto), Nodes: 25, Flows: 5,
				SimTimeSec: 20, Seed: 2,
				Profile: "none", Adversary: "seqno-forge", AuditMS: 50,
			}
			r, err := conformance.CheckSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Total != 0 {
				t.Errorf("conservation violated: %d violations (first: %v)", r.Total, r.Violations)
			}
		})
	}
}

// floodTap is a silent neighbour that counts the route requests and
// errors it hears.
type floodTap struct{ rreqs, rerrs int }

func (*floodTap) Start()                                         {}
func (*floodTap) Stop()                                          {}
func (*floodTap) Originate(*routing.DataPacket)                  {}
func (*floodTap) HandleData(routing.NodeID, *routing.DataPacket) {}
func (f *floodTap) HandleControl(_ routing.NodeID, msg routing.Message) {
	switch msg.Kind() {
	case metrics.RREQ:
		f.rreqs++
	case metrics.RERR:
		f.rerrs++
	}
}

// floodRig is one LDR or AODV handler under a neighbour's flood, fed
// directly: node 1 runs the protocol, node 0 is the flooding neighbour,
// and every other node is a silent tap in range of node 1.
type floodRig struct {
	install func(dst routing.NodeID)                 // a route to dst via node 0
	rreq    func(id uint32) routing.Message          // a fresh request from node 0 for node 2
	rerr    func(dst routing.NodeID) routing.Message // node 0 reports dst unreachable
}

// TestStormSuppression: the per-neighbour token buckets LDR and AODV
// consult (ondemand.Limits: RREQs at 20/s with a burst of 40, RERRs at
// 10/s with a burst of 20) must discard a flood from one neighbour. More
// requests and errors than a burst arrive at one instant: the burst is
// processed — each request relayed, each error invalidating its route
// and propagating — and the excess is counted as suppressed and neither
// relayed nor acted on.
func TestStormSuppression(t *testing.T) {
	const (
		rreqBurst, rerrBurst = 40, 20
		excess               = 5
		n                    = 3 + rerrBurst + excess // routes to nodes 3..n-1
	)
	rigs := map[scenario.ProtocolName]func(*routing.Node) (routing.Protocol, floodRig){
		scenario.LDR: func(node *routing.Node) (routing.Protocol, floodRig) {
			l := core.New(node, core.DefaultConfig())
			seq := core.NewSeqno(1, 1)
			return l, floodRig{
				install: func(dst routing.NodeID) {
					l.HandleControl(0, &core.RREP{Dst: dst, DstSeq: seq, Origin: 2, ReqID: 1, Dist: 1, Lifetime: time.Minute})
				},
				rreq: func(id uint32) routing.Message {
					return &core.RREQ{Dst: 2, Origin: 0, OriginSeq: seq, ReqID: id, FD: core.Infinity, AnsDist: core.Infinity, TTL: 8}
				},
				rerr: func(dst routing.NodeID) routing.Message {
					return &core.RERR{Unreachable: []core.RERRDest{{Dst: dst, Seq: seq}}}
				},
			}
		},
		scenario.AODV: func(node *routing.Node) (routing.Protocol, floodRig) {
			a := aodv.New(node)
			return a, floodRig{
				install: func(dst routing.NodeID) {
					a.HandleControl(0, &aodv.RREP{Dst: dst, DstSeq: 1, Origin: 2, HopCount: 1, Lifetime: time.Minute})
				},
				rreq: func(id uint32) routing.Message {
					return &aodv.RREQ{Dst: 2, UnknownSeq: true, Origin: 0, OriginSeq: 1, ReqID: id, TTL: 8}
				},
				rerr: func(dst routing.NodeID) routing.Message {
					return &aodv.RERR{Unreachable: []aodv.RERRDest{{Dst: dst, Seq: 1}}}
				},
			}
		},
	}
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		t.Run(string(proto), func(t *testing.T) {
			var p routing.Protocol
			var rig floodRig
			tap := &floodTap{}
			nw := routing.NewNetwork(n, mobility.NewStatic(make([]mobility.Point, n)), mac.DefaultConfig(), 1,
				func(node *routing.Node) routing.Protocol {
					switch node.ID() {
					case 1:
						p, rig = rigs[proto](node)
						return p
					case 2:
						return tap
					}
					return &floodTap{}
				})
			nw.Start()
			for dst := routing.NodeID(3); dst < n; dst++ {
				rig.install(dst)
			}
			for id := uint32(1); id <= rreqBurst+excess; id++ {
				p.HandleControl(0, rig.rreq(id))
			}
			for dst := routing.NodeID(3); dst < n; dst++ {
				p.HandleControl(0, rig.rerr(dst))
			}
			nw.Sim.Run(time.Second)

			col := nw.Collector
			if col.RREQSuppressed != excess || tap.rreqs != rreqBurst {
				t.Errorf("%d requests at one instant: %d suppressed, %d relayed; want %d and %d",
					rreqBurst+excess, col.RREQSuppressed, tap.rreqs, excess, rreqBurst)
			}
			if col.RERRSuppressed != excess || tap.rerrs != rerrBurst {
				t.Errorf("%d errors at one instant: %d suppressed, %d propagated; want %d and %d",
					rerrBurst+excess, col.RERRSuppressed, tap.rerrs, excess, rerrBurst)
			}
			var valid, want []routing.NodeID
			for _, e := range p.(routing.TableSnapshotter).SnapshotTable() {
				if e.Valid && e.Next == 0 && e.Dst >= 3 {
					valid = append(valid, e.Dst)
				}
			}
			for dst := routing.NodeID(n - excess); dst < n; dst++ {
				want = append(want, dst)
			}
			if !slices.Equal(valid, want) {
				t.Errorf("routes via the flooding neighbour after its errors: %v, want the suppressed errors' %v", valid, want)
			}
		})
	}
}

// TestAdversaryDeterminism: an attacked run is a pure function of its
// config — stats, delivery, control volume, and audit counters must be
// bit-equal across repeats.
func TestAdversaryDeterminism(t *testing.T) {
	cfg := attackConfig(scenario.AODV, 7, attackPlan(t, "seqno-forge"))
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Adversary.ForgedRREPs == 0 {
		t.Fatal("seqno-forge forged nothing")
	}
	if a.Adversary != b.Adversary {
		t.Errorf("adversary stats diverged:\n%+v\n%+v", a.Adversary, b.Adversary)
	}
	type digest struct {
		delivered, dropped, ctrl, loops uint64
	}
	da := digest{a.Collector.DataDelivered, a.Collector.DataDropped, a.Collector.TotalControlTransmitted(), a.Collector.LoopViolations}
	db := digest{b.Collector.DataDelivered, b.Collector.DataDropped, b.Collector.TotalControlTransmitted(), b.Collector.LoopViolations}
	if da != db {
		t.Errorf("collector counters diverged:\n%+v\n%+v", da, db)
	}
}

// TestProfileValidation: unknown names must error with the candidate
// list, and every advertised name must resolve.
func TestProfileValidation(t *testing.T) {
	if _, err := adversary.Profile("bogus", 25, time.Minute); err == nil {
		t.Error("unknown profile resolved without error")
	}
	for _, name := range adversary.ProfileNames() {
		if _, err := adversary.Profile(name, 25, time.Minute); err != nil {
			t.Errorf("advertised profile %q failed to resolve: %v", name, err)
		}
	}
}

// TestExplicitVictims: a plan naming explicit nodes must wrap
// exactly those nodes, regardless of the random stream.
func TestExplicitVictims(t *testing.T) {
	plan := adversary.Plan{Name: "explicit", Nodes: []int{3, 7}}
	cfg := attackConfig(scenario.LDR, 1, &plan)
	_, _, inst, err := scenario.BuildInstrumented(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := inst.Adversary
	if eng == nil {
		t.Fatal("no adversary engine installed")
	}
	var got []int
	for id := range cfg.Nodes {
		if eng.IsCompromised(routing.NodeID(id)) {
			got = append(got, id)
		}
	}
	if !slices.Equal(got, plan.Nodes) || eng.Stats.Compromised != len(plan.Nodes) {
		t.Errorf("compromised %v (%d counted), want %v", got, eng.Stats.Compromised, plan.Nodes)
	}
}
