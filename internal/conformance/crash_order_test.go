package conformance

import (
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// TestCrashDropOrder: a node that crashes while buffering data for
// several destinations must drop it in one order every run — ascending
// destination, queue order within one — or two captures of a reboot
// scenario are not byte-identical. Eight isolated nodes; node 0
// originates toward the other seven (descending, so insertion order is
// not the answer either) and crashes a millisecond later. The buffers
// used to drain in map order, which varies from run to run, hence the
// repeats.
func TestCrashDropOrder(t *testing.T) {
	want := []routing.NodeID{1, 2, 3, 4, 5, 6, 7}
	for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV, scenario.DSR} {
		factory, err := scenario.Factory(proto, nil)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 20; run++ {
			// 1 km apart: nobody hears anybody, every discovery stays open.
			nw := routing.NewNetwork(8, mobility.Line(8, 1000), radio.DefaultConfig(), mac.DefaultConfig(), 1, factory)
			var log Log
			nw.SetTracer(&log)
			nw.Start()
			origin := nw.Nodes[0]
			nw.Sim.Schedule(0, func() {
				for dst := 7; dst >= 1; dst-- {
					origin.OriginateData(routing.NodeID(dst), 64)
				}
			})
			nw.Sim.Schedule(time.Millisecond, origin.Crash)
			nw.Sim.Run(10 * time.Millisecond)
			nw.Stop()

			events, err := log.Events()
			if err != nil {
				t.Fatal(err)
			}
			var got []routing.NodeID
			for _, ev := range events {
				if ev.Kind == routing.TraceDrop && ev.Reason == routing.DropReset {
					got = append(got, ev.Dst)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s run %d: crash dropped destinations in order %v, want %v", proto, run, got, want)
			}
		}
	}
}
