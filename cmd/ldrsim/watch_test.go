package main

import (
	"testing"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/sim"
)

var uniform = []radio.Class{{Range: 275}}

// checkConnectivity pins the dump header's graph for static nodes at pts:
// components and the reachable fraction over the medium's usable links,
// which need both ends in each other's range. Node i has class i mod
// len(classes).
func checkConnectivity(t *testing.T, pts []mobility.Point, classes []radio.Class, components int, reachable float64) {
	t.Helper()
	m := radio.New(sim.New(), mobility.NewStatic(pts), radio.Config{Classes: classes})
	if c, r := connectivity(m); c != components || r != reachable {
		t.Errorf("%d components, %v reachable; want %d, %v", c, r, components, reachable)
	}
}

func TestChainGraph(t *testing.T) {
	checkConnectivity(t, []mobility.Point{{X: 0}, {X: 250}, {X: 500}, {X: 750}, {X: 1000}}, uniform, 1, 1)
	checkConnectivity(t, []mobility.Point{{X: 0}}, uniform, 1, 1)
}

func TestPartitionedGraph(t *testing.T) {
	// Islands of three and two nodes: 3·2 + 2·1 = 8 of 5·4 ordered pairs.
	checkConnectivity(t, []mobility.Point{{X: 0}, {X: 200}, {X: 400}, {X: 2000}, {X: 2200}}, uniform, 2, 8.0/20)
}

// TestSnapshotRangesMutualOnly: 250 m apart, node 0 reaches node 1 but
// node 1 cannot answer, so the pair is no link.
func TestSnapshotRangesMutualOnly(t *testing.T) {
	checkConnectivity(t, []mobility.Point{{X: 0}, {X: 250}}, []radio.Class{{Range: 400}, {Range: 150}}, 2, 0)
}
