package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCoordination runs the example: one control-cost line per scheme for
// the same broken link.
func TestCoordination(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"DUAL diffusing computation:    41 reliable messages (13 queries, 13 replies, 15 updates)\n",
		"Full link reversal:           105 node reversals over 27 cascading rounds\n",
		"Partial link reversal (TORA):   14 node reversals over 14 cascading rounds\n",
		"LDR local decision + ring:     72 wireless control transmissions, traffic restored in 4.5s\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
