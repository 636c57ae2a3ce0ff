package main

import (
	"testing"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/sim"
)

// checkConnectivity pins the dump header's graph for static nodes at pts:
// components and the reachable fraction over the medium's links.
func checkConnectivity(t *testing.T, pts []mobility.Point, components int, reachable float64) {
	t.Helper()
	m := radio.New(sim.New(), mobility.NewStatic(pts), radio.DefaultConfig())
	if c, r := connectivity(m); c != components || r != reachable {
		t.Errorf("%d components, %v reachable; want %d, %v", c, r, components, reachable)
	}
}

func TestChainGraph(t *testing.T) {
	checkConnectivity(t, []mobility.Point{{X: 0}, {X: 250}, {X: 500}, {X: 750}, {X: 1000}}, 1, 1)
	checkConnectivity(t, []mobility.Point{{X: 0}}, 1, 1)
}

func TestPartitionedGraph(t *testing.T) {
	// Islands of three and two nodes: 3·2 + 2·1 = 8 of 5·4 ordered pairs.
	checkConnectivity(t, []mobility.Point{{X: 0}, {X: 200}, {X: 400}, {X: 2000}, {X: 2200}}, 2, 8.0/20)
}
