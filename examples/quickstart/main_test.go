package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstart runs the example: every packet crosses the nine-hop line,
// and node 0's route to node 9 is nine hops through node 1.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"delivered 50 of 50 packets (100.0%)\n",
		"node 0 reaches node 9 via node 1 in 9 hops",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
