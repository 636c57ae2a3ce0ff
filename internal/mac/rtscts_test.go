package mac_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/sim"
)

// rtsRig wires MACs with RTS/CTS enabled.
type rtsRig struct {
	s        *sim.Simulator
	medium   *radio.Medium
	macs     []*mac.MAC
	received map[int]int
}

func newRTSRig(pts []mobility.Point, enabled bool) *rtsRig {
	s := sim.New()
	medium := radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig())
	cfg := mac.Config{RTSCTSEnabled: enabled}
	r := &rtsRig{s: s, medium: medium, received: make(map[int]int)}
	root := rng.New(7)
	for i := range pts {
		i := i
		m := mac.New(i, s, medium, cfg, root.Split("m"+string(rune('a'+i))),
			func(_ int, _ *mac.Frame) { r.received[i]++ })
		r.macs = append(r.macs, m)
	}
	return r
}

func TestRTSCTSUnicastSucceeds(t *testing.T) {
	r := newRTSRig([]mobility.Point{{X: 0}, {X: 200}}, true)
	rec := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: "x", Handler: rec})
	})
	r.s.RunAll()
	if rec.sent != 1 || r.received[1] != 1 {
		t.Fatalf("acked=%d received=%d", rec.sent, r.received[1])
	}
	if r.macs[0].Stats().RTSSent == 0 {
		t.Fatal("no RTS was sent despite RTS/CTS being enabled")
	}
}

func TestRTSCTSSuppressesHiddenTerminals(t *testing.T) {
	// Hidden terminals: with their link cut, nodes 0 and 2 (500 m apart)
	// neither decode nor sense each other but both reach node 1. Both ends pump unicast traffic at
	// node 1. With basic access this collides heavily; with RTS/CTS the
	// far end hears node 1's CTS and sets its NAV.
	pts := []mobility.Point{{X: 0}, {X: 250}, {X: 500}}
	load := func(enabled bool) (delivered int, retries uint64) {
		r := newRTSRig(pts, enabled)
		r.medium.SetLinkDown(0, 2, true)
		r.s.Schedule(0, func() {
			for k := 0; k < 40; k++ {
				r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: k})
				r.macs[2].Send(&mac.Frame{To: 1, Bytes: 512, Payload: 100 + k})
			}
		})
		r.s.RunAll()
		return r.received[1], r.macs[0].Stats().Retries + r.macs[2].Stats().Retries
	}

	basicDelivered, basicRetries := load(false)
	rtsDelivered, rtsRetries := load(true)

	if rtsDelivered < basicDelivered {
		t.Fatalf("RTS/CTS delivered fewer frames (%d) than basic access (%d)", rtsDelivered, basicDelivered)
	}
	if rtsRetries >= basicRetries {
		t.Fatalf("RTS/CTS did not cut retransmissions: %d vs %d", rtsRetries, basicRetries)
	}
}

func TestNAVDefersThirdParty(t *testing.T) {
	// Hidden third party: node 2 cannot sense node 0 (their link is cut)
	// but hears node 1's CTS, which must set node 2's NAV and defer its
	// transmission past the end of the 0→1 exchange.
	pts := []mobility.Point{{X: 0}, {X: 250}, {X: 500}}
	r := newRTSRig(pts, true)
	r.medium.SetLinkDown(0, 2, true)
	thirdParty := &recorder{s: r.s}
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: 1, Bytes: 512, Payload: "big"})
	})
	// By 1.2 ms node 0's exchange is in its data phase (worst-case
	// backoff 670 µs + RTS + SIFS + CTS ≈ 1.0 ms) and ends no earlier
	// than 2.8 ms after it started.
	r.s.Schedule(1200*time.Microsecond, func() {
		r.macs[2].Send(&mac.Frame{To: 1, Bytes: 100, Payload: "later", Handler: thirdParty})
	})
	r.s.RunAll()

	if r.received[1] != 2 {
		t.Fatalf("delivered %d frames, want both", r.received[1])
	}
	if got := r.macs[2].Stats().Retries; got != 0 {
		t.Fatalf("third party needed %d retries; NAV should have prevented the collision", got)
	}
	if thirdParty.sent != 1 || thirdParty.sentAt < 2500*time.Microsecond {
		t.Fatalf("third party finished at %v (sent=%d), inside the NAV window", thirdParty.sentAt, thirdParty.sent)
	}
}

func TestBroadcastSkipsRTS(t *testing.T) {
	r := newRTSRig([]mobility.Point{{X: 0}, {X: 200}}, true)
	r.s.Schedule(0, func() {
		r.macs[0].Send(&mac.Frame{To: mac.BroadcastAddr, Bytes: 512, Payload: "bc"})
	})
	r.s.RunAll()
	if r.macs[0].Stats().RTSSent != 0 {
		t.Fatal("broadcast used RTS")
	}
	if r.received[1] != 1 {
		t.Fatal("broadcast not delivered")
	}
}
