package experiments_test

import (
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/scenario"
)

func TestMobilityRendersEveryModel(t *testing.T) {
	var buf strings.Builder
	o := tiny(scenario.LDR, scenario.AODV)
	o.Out = &buf
	if err := experiments.Mobility(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, model := range scenario.Mobilities() {
		if !strings.Contains(out, "Mobility — "+model) {
			t.Fatalf("missing section for %s:\n%s", model, out)
		}
		if !strings.Contains(out, "ranking "+model) {
			t.Fatalf("missing ranking line for %s:\n%s", model, out)
		}
	}
	// Each ranking line orders both protocols.
	if got := strings.Count(out, " > "); got < 2*len(scenario.Mobilities()) {
		t.Fatalf("ranking separators: got %d:\n%s", got, out)
	}
}

func TestMobilityComposesWithDiversityAxes(t *testing.T) {
	var buf strings.Builder
	o := tiny(scenario.LDR)
	o.Out = &buf
	o.TrafficPattern = "bursty"
	if err := experiments.Mobility(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ranking") {
		t.Fatalf("no output:\n%s", buf.String())
	}
}
