package scenario_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/routing/ondemand"
	"github.com/manetlab/ldr/internal/scenario"
)

// ttlTap records the TTL of every RREQ it hears, LDR's or AODV's, and
// relays nothing.
type ttlTap struct{ ttls *[]int }

func (ttlTap) Start()                                         {}
func (ttlTap) Stop()                                          {}
func (ttlTap) Originate(*routing.DataPacket)                  {}
func (ttlTap) HandleData(routing.NodeID, *routing.DataPacket) {}
func (t ttlTap) HandleControl(_ routing.NodeID, msg routing.Message) {
	switch m := msg.(type) {
	case *core.RREQ:
		*t.ttls = append(*t.ttls, m.TTL)
	case *aodv.RREQ:
		*t.ttls = append(*t.ttls, m.TTL)
	}
}

// TestRingStartSetsTheFirstTTL: Config.RingStart reaches LDR's and AODV's
// first RREQ through Factory. 0 starts the expanding ring at
// ondemand.TTLStart; NetDiameter, the ablation's no-ring and aodv-no-ring
// arms, floods network-wide at once. Node 0 solicits a destination two
// hops away behind a neighbour that only listens.
func TestRingStartSetsTheFirstTTL(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
		for ring, want := range map[int]int{0: ondemand.TTLStart, ondemand.NetDiameter: ondemand.NetDiameter} {
			f, err := scenario.Factory(scenario.Config{Protocol: proto, RingStart: ring})
			if err != nil {
				t.Fatal(err)
			}
			var ttls []int
			nw := routing.NewNetwork(3, mobility.Line(3, 200), mac.DefaultConfig(), 1,
				func(n *routing.Node) routing.Protocol {
					if n.ID() == 0 {
						return f(n)
					}
					return ttlTap{&ttls}
				})
			nw.Start()
			nw.Sim.At(time.Second, func() { nw.Nodes[0].OriginateData(2, 512) })
			nw.Sim.Run(1200 * time.Millisecond)
			if len(ttls) == 0 || ttls[0] != want {
				t.Errorf("%s with RingStart %d: node 1 heard RREQ TTLs %v, want the first %d", proto, ring, ttls, want)
			}
		}
	}
}
