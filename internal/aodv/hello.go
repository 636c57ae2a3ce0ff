package aodv

import (
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/wire"
)

// Hello is AODV's neighbor-liveness beacon (draft-10 §8.4): a node with
// active routes broadcasts one per HelloInterval; missing several in a
// row from a next hop is treated as a link break. The paper's simulations
// rely on link-layer feedback instead (our default); hellos are provided
// for completeness and for the hello-vs-feedback comparison test.
type Hello struct {
	Origin routing.NodeID
	Seq    uint32
}

// Kind implements routing.Message.
func (Hello) Kind() metrics.ControlKind { return metrics.Hello }

// Size implements routing.Message.
func (Hello) Size() int { return helloWireSize }

// Marshal encodes the Hello to its wire format.
func (h Hello) Marshal() []byte {
	return wire.NewEncoder(wire.TypeAODVHello).
		Node(int(h.Origin)).
		U32(h.Seq).
		Bytes()
}

// UnmarshalHello decodes an AODV Hello.
func UnmarshalHello(b []byte) (Hello, error) {
	d, err := wire.NewDecoder(b, wire.TypeAODVHello)
	if err != nil {
		return Hello{}, err
	}
	var h Hello
	h.Origin = routing.NodeID(d.Node())
	h.Seq = d.U32()
	return h, d.Err()
}

// startHello begins the hello cycle (when Config.UseHello is set).
func (a *AODV) startHello() {
	phase := time.Duration(a.node.RNG().Float64() * float64(a.cfg.HelloInterval))
	a.helloTimer = a.node.Schedule(phase, a.helloTick)
}

func (a *AODV) helloTick() {
	if a.Stopped() {
		return
	}
	now := a.node.Now()
	// Only nodes with active routes beacon (draft-10 §8.4).
	hasActive := false
	for _, e := range a.routes {
		if e.active(now) {
			hasActive = true
			break
		}
	}
	if hasActive {
		a.ownSeq++
		a.node.Metrics().CountControlInitiate(metrics.Hello)
		h := a.helloPool.Get()
		*h = Hello{Origin: a.node.ID(), Seq: a.ownSeq}
		a.node.SendControl(routing.BroadcastID, h, nil)
	}
	a.checkNeighborLiveness(now)
	a.helloTimer = a.node.Schedule(a.cfg.HelloInterval, a.helloTick)
}

func (a *AODV) handleHello(from routing.NodeID, h Hello) {
	a.lastHeard[from] = a.node.Now()
	// A hello also refreshes (or creates) the one-hop route to the sender.
	a.installReverse(h.Origin, h.Seq, 0, from)
}

// checkNeighborLiveness declares next hops dead after AllowedHelloLoss
// silent intervals and runs the usual break handling for their routes.
func (a *AODV) checkNeighborLiveness(now time.Duration) {
	deadline := time.Duration(a.cfg.AllowedHelloLoss) * a.cfg.HelloInterval
	for nb, heard := range a.lastHeard {
		if now-heard <= deadline {
			continue
		}
		delete(a.lastHeard, nb)
		a.sendRERR(a.invalidateVia(nb))
	}
}
