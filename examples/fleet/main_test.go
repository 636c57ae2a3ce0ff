package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestFleet runs the example and checks the deliveries its comment quotes,
// and that OLSR carries the heaviest network load.
func TestFleet(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	delivery, load := map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		var proto, latency string
		var pct, net, rreq float64
		if _, err := fmt.Sscanf(line, "%s %f%% %s %f %f", &proto, &pct, &latency, &net, &rreq); err == nil {
			delivery[proto], load[proto] = pct, net
		}
	}
	want := map[string]float64{"ldr": 98.6, "aodv": 98.9, "dsr": 96.7, "olsr": 92.3}
	for proto, pct := range want {
		if delivery[proto] != pct {
			t.Errorf("%s delivers %.1f%%, the comment says %.1f%%", proto, delivery[proto], pct)
		}
	}
	for proto, l := range load {
		if proto != "olsr" && l >= load["olsr"] {
			t.Errorf("%s's network load %.2f is not below OLSR's %.2f", proto, l, load["olsr"])
		}
	}
	if len(delivery) != len(want) {
		t.Errorf("%d protocol rows, want %d:\n%s", len(delivery), len(want), out.String())
	}
}
