package aodv_test

import (
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
)

// rerrTap is a silent neighbour that records the destination list of
// every RERR it hears, copied while the pooled message is still valid.
type rerrTap struct{ heard [][]routing.NodeID }

func (*rerrTap) Start()                                         {}
func (*rerrTap) Stop()                                          {}
func (*rerrTap) Originate(*routing.DataPacket)                  {}
func (*rerrTap) HandleData(routing.NodeID, *routing.DataPacket) {}
func (r *rerrTap) HandleControl(_ routing.NodeID, msg routing.Message) {
	if m, ok := msg.(*aodv.RERR); ok {
		var dsts []routing.NodeID
		for _, u := range m.Unreachable {
			dsts = append(dsts, u.Dst)
		}
		r.heard = append(r.heard, dsts)
	}
}

// TestRERRListsDestinationsAscending: when the MAC gives up on a next hop,
// the RERR that reports every route through it lists the destinations in
// ascending order, so its content is the same on every run.
func TestRERRListsDestinationsAscending(t *testing.T) {
	const n, next = 12, 11 // node 0 runs AODV; node 11 is the next hop that fails
	tap := &rerrTap{}
	nw := routing.NewNetwork(n, mobility.NewStatic(make([]mobility.Point, n)), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			if node.ID() == 0 {
				return aodv.New(node)
			}
			if node.ID() == 1 {
				return tap
			}
			return &rerrTap{}
		})
	nw.Start()
	a := aodvAt(nw, 0)
	for _, dst := range []routing.NodeID{7, 3, 10, 1, 9, 5, 2, 8, 4, 6} {
		a.HandleControl(next, &aodv.RREP{Dst: dst, DstSeq: 1, Origin: 5, HopCount: 1, Lifetime: time.Minute})
	}
	a.DataFailed(next, &routing.DataPacket{Src: 5, Dst: 4, ID: 1, TTL: 8})
	nw.Sim.Run(time.Second)

	want := []routing.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if len(tap.heard) != 1 || !slices.Equal(tap.heard[0], want) {
		t.Errorf("RERRs heard %v, want one listing %v", tap.heard, want)
	}
}
