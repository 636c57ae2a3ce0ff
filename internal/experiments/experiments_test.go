package experiments_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/experiments"
	"github.com/manetlab/ldr/internal/scenario"
)

// tiny returns options that keep an experiment under a second or two.
func tiny(protos ...scenario.ProtocolName) experiments.Options {
	return experiments.Options{
		Trials:    1,
		SimTime:   20 * time.Second,
		BaseSeed:  1,
		Protocols: protos,
	}
}

func TestDeliveryFigureRendersSeries(t *testing.T) {
	var buf strings.Builder
	o := tiny(scenario.LDR)
	o.Out = &buf
	if err := experiments.DeliveryFigure(o, "Fig X", 15, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "ldr") {
		t.Fatalf("missing header/series:\n%s", out)
	}
	// One row per pause time: PauseTimes(20s) = {0, 20s}.
	if rows := strings.Count(out, "±"); rows != 2 {
		t.Fatalf("want 2 data rows, got %d:\n%s", rows, out)
	}
}

func TestFig7ReportsSeqnos(t *testing.T) {
	var buf strings.Builder
	o := tiny()
	o.Out = &buf
	if err := experiments.Fig7(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"ldr-10f", "aodv-10f", "ldr-30f", "aodv-30f"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %s:\n%s", col, out)
		}
	}
}

// TestVariantsCoverEveryOptimization also requires every variant but
// ldr-full to change the cell it edits: an arm whose edit a caller drops
// would run ldr-full under another name.
func TestVariantsCoverEveryOptimization(t *testing.T) {
	names := make(map[string]bool)
	for _, v := range experiments.Variants() {
		names[v.Name] = true
		def := tiny().Cell(scenario.LDR, 50, 10, 0, 1)
		cell := def
		v.Edit(&cell)
		if edited := !reflect.DeepEqual(cell, def); edited != (v.Name != "ldr-full") {
			t.Errorf("variant %s: edit changes the cell = %v", v.Name, edited)
		}
	}
	for _, want := range []string{
		"ldr-full", "no-multi-rrep", "no-reduced-dist",
		"no-min-lifetime", "no-optimal-ttl", "no-ring",
		"no-reset-leg", "leg-dies",
	} {
		if !names[want] {
			t.Fatalf("ablation variant %q missing", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := experiments.Options{}.Defaults()
	if o.Trials != 3 || o.SimTime != 300*time.Second || o.BaseSeed != 1 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if len(o.Protocols) != 4 {
		t.Fatalf("default protocols = %v", o.Protocols)
	}
}

func TestAblationRendersEveryVariant(t *testing.T) {
	var buf strings.Builder
	o := tiny()
	o.SimTime = 15 * time.Second
	o.Out = &buf
	if err := experiments.Ablation(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"ldr-full", "no-ring", "olsr-nojitter", "ldr+rtscts"} {
		if !strings.Contains(out, row) {
			t.Fatalf("ablation output missing row %q:\n%s", row, out)
		}
	}
}

func TestTable1RendersBothLoads(t *testing.T) {
	var buf strings.Builder
	o := tiny(scenario.LDR)
	o.SimTime = 15 * time.Second
	o.Out = &buf
	if err := experiments.Table1(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "10 flows") || !strings.Contains(out, "30 flows") {
		t.Fatalf("table1 output missing a flow section:\n%s", out)
	}
}

// render runs an experiment into a buffer and returns the bytes.
func render(t *testing.T, o experiments.Options, fn func(experiments.Options) error) string {
	t.Helper()
	var buf strings.Builder
	o.Out = &buf
	if err := fn(o); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestParallelOutputByteIdentical is the sweep engine's end-to-end
// determinism contract: every experiment's rendered output must be
// byte-identical between a serial run and a 4-worker run.
func TestParallelOutputByteIdentical(t *testing.T) {
	experimentsUnderTest := []struct {
		name string
		fn   func(experiments.Options) error
	}{
		{"table1", experiments.Table1},
		{"figure", func(o experiments.Options) error {
			return experiments.DeliveryFigure(o, "Fig X", 15, 3)
		}},
		{"fig7", experiments.Fig7},
		{"ablation", experiments.Ablation},
	}
	for _, e := range experimentsUnderTest {
		e := e
		t.Run(e.name, func(t *testing.T) {
			o := tiny(scenario.LDR, scenario.AODV)
			o.SimTime = 15 * time.Second
			o.Trials = 2
			o.Workers = 1
			serial := render(t, o, e.fn)
			o.Workers = 4
			parallel := render(t, o, e.fn)
			if serial != parallel {
				t.Fatalf("serial and 4-worker output differ\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
			if !strings.Contains(serial, "±") {
				t.Fatalf("output has no data rows:\n%s", serial)
			}
		})
	}
}

// TestAllOutputIsRepeatable: "all" reports each experiment's wall time
// on standard error, so two runs of the paper set render the same bytes.
func TestAllOutputIsRepeatable(t *testing.T) {
	all, err := experiments.Find("all")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]strings.Builder
	for i := range outs {
		o := tiny(scenario.LDR)
		o.SimTime = 3 * time.Second
		o.Out = &outs[i]
		if err := all.Run(o); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Fatalf("two runs of all differ:\n--- first ---\n%s\n--- second ---\n%s", outs[0].String(), outs[1].String())
	}
	if strings.Contains(outs[0].String(), "done in") {
		t.Fatalf("all wrote a wall time to its table output:\n%s", outs[0].String())
	}
}
