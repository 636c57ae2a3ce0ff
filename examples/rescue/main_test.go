package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRescue runs the example: every window's packets arrive before the
// relay leaves and after it is back, few while it is away, no window
// reads above 100 %, and the destination's counter never moved.
func TestRescue(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var pcts []float64
	for _, line := range strings.Split(out.String(), "\n") {
		var end, pct float64
		if _, err := fmt.Sscanf(line, "t=%fs  window delivery %f%%", &end, &pct); err == nil {
			pcts = append(pcts, pct)
		}
	}
	if len(pcts) != 6 {
		t.Fatalf("%d window lines, want 6:\n%s", len(pcts), out.String())
	}
	for i, pct := range pcts {
		away := i == 2 || i == 3 // the windows ending at 60 s and 80 s
		if pct > 100 || away && pct > 10 || !away && pct < 100 {
			t.Errorf("window %d delivers %.1f%% (relay away: %v)", i, pct, away)
		}
	}
	if want := "destination's own sequence number after the churn: ts=1 ctr=0\n"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}
