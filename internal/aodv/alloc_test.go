package aodv_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// TestModelStateZeroAlloc: once warm, an AODV instance that buffers no
// data saves, encodes and restores its state without allocating — here
// with forward and reverse routes, precursors and duplicate-cache
// entries, alternated with the empty state a reset leaves.
func TestModelStateZeroAlloc(t *testing.T) {
	nw := buildNet(mobility.Line(4, 250), 3)
	nw.Start()
	for ts := time.Duration(0); ts < time.Second; ts += 100 * time.Millisecond {
		nw.Sim.At(ts, func() { nw.Nodes[0].OriginateData(3, 64) })
	}
	nw.Sim.Run(2 * time.Second)
	for id := range nw.Nodes {
		a := aodvAt(nw, id)
		a.WalkHeldData(func(*routing.DataPacket) { t.Fatalf("node %d buffers data", id) })
		full := a.SaveModelState(nil)
		a.Reset()
		empty := a.SaveModelState(nil)
		var enc []byte
		cycle := func() {
			a.RestoreModelState(full)
			enc = a.AppendModelState(enc[:0])
			full = a.SaveModelState(full)
			a.RestoreModelState(empty)
			enc = a.AppendModelState(enc[:0])
			empty = a.SaveModelState(empty)
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("node %d: a warm save, encode and restore allocate %v times, want 0", id, n)
		}
	}
}
