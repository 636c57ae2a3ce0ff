package conformance

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// poisonedProto panics as soon as the network starts — a stand-in for a
// protocol bug that would otherwise abort a whole sweep.
type poisonedProto struct{}

func (poisonedProto) Start()                                        { panic("poisoned protocol: deliberate test panic") }
func (poisonedProto) HandleControl(routing.NodeID, routing.Message) {}
func (poisonedProto) HandleData(routing.NodeID, *routing.DataPacket) {
}
func (poisonedProto) Originate(*routing.DataPacket) {}
func (poisonedProto) Stop()                         {}

const poisonedName scenario.ProtocolName = "poisoned-test-proto"

func registerPoisoned(t *testing.T) {
	t.Helper()
	scenario.RegisterProtocol(poisonedName, func(*routing.Node) routing.Protocol {
		return poisonedProto{}
	})
}

// TestPanicQuarantineEndToEnd is the acceptance path for panic
// quarantine: a sweep containing a deliberately panicking protocol cell,
// run keep-going with a journal, completes its healthy cells, names the
// poisoned cell in the failure manifest, and auto-emits a reproducer
// seed that replays the panic standalone.
func TestPanicQuarantineEndToEnd(t *testing.T) {
	registerPoisoned(t)
	dir := t.TempDir()
	j, err := resilience.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	var cfgs []scenario.Config
	for seed := int64(1); seed <= 3; seed++ {
		cfg := scenario.Nodes50(scenario.LDR, 2, 0, seed)
		cfg.Nodes = 8
		cfg.SimTime = 4 * time.Second
		cfgs = append(cfgs, cfg)
	}
	poisoned := scenario.Nodes50(poisonedName, 2, 0, 99)
	poisoned.Nodes = 8
	poisoned.SimTime = 4 * time.Second
	cfgs = append(cfgs[:1], append([]scenario.Config{poisoned}, cfgs[1:]...)...) // poison cell 1

	results, err := sweep.Run(cfgs, sweep.Options{
		Workers: 2,
		Exec: sweep.ExecOptions{
			Journal:   j,
			KeepGoing: true,
			OnFailure: QuarantineEmitter(dir, t.Logf),
		},
	})
	var fs sweep.Failures
	if !errors.As(err, &fs) || len(fs) != 1 {
		t.Fatalf("err = %T %v, want one-failure sweep.Failures", err, err)
	}
	ce := fs[0]
	if ce.Index != 1 {
		t.Fatalf("quarantined cell %d, want 1", ce.Index)
	}
	if resilience.Kind(ce.Err) != "panic" {
		t.Fatalf("failure kind %q, want panic", resilience.Kind(ce.Err))
	}
	for i, r := range results {
		if i == 1 {
			if r.Collector != nil {
				t.Fatal("poisoned cell produced a result")
			}
			continue
		}
		if r.Collector == nil || r.Events == 0 {
			t.Fatalf("healthy cell %d did not complete despite quarantine", i)
		}
	}

	// The manifest names the cell and points at the reproducer.
	if ce.Repro == "" {
		t.Fatal("quarantine did not emit a reproducer")
	}
	if _, err := resilience.WriteManifest(dir, fs.Manifest("result", len(cfgs))); err != nil {
		t.Fatal(err)
	}
	m, err := resilience.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Failures) != 1 || m.Failures[0].Index != 1 || m.Failures[0].Kind != "panic" ||
		m.Failures[0].Repro != ce.Repro || !strings.Contains(m.Failures[0].Stack, "poisonedProto") {
		t.Fatalf("manifest does not name the quarantined cell: %+v", m.Failures)
	}

	// The reproducer replays the panic standalone — no sweep, no journal.
	spec, err := LoadSpec(ce.Repro)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Protocol != string(poisonedName) || spec.Seed != 99 {
		t.Fatalf("reproducer spec does not pin the poisoned cell: %+v", spec)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("reproducer did not replay the panic")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "poisoned protocol") {
				t.Fatalf("reproducer panicked differently: %v", r)
			}
		}()
		_, _ = CheckSpec(spec)
	}()
}

// TestSpecFromConfigRoundTrip: a sweep cell's config folds into a Spec
// whose expansion is the identical config, so reproducers replay the
// exact cell.
func TestSpecFromConfigRoundTrip(t *testing.T) {
	cfg := scenario.Nodes50(scenario.LDR, 6, 30*time.Second, 7)
	cfg.AuditCadence = 250 * time.Millisecond
	spec, err := SpecFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Note != "" {
		t.Fatalf("lossless config produced note %q", spec.Note)
	}
	back, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed the config:\n have %+v\n want %+v", back, cfg)
	}

	// Non-representable knobs are disclosed, not dropped silently.
	cfg.RTSCTS = true
	spec, err = SpecFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.Note, "RTS/CTS") {
		t.Fatalf("lossy fold not disclosed: note %q", spec.Note)
	}
}

// TestEmitReproducerDurable: the emitted seed is content-addressed,
// valid JSON, and idempotent.
func TestEmitReproducerDurable(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Protocol: "ldr", Nodes: 8, Flows: 1, SimTimeSec: 5, Seed: 3, AuditMS: 100}
	p1, err := EmitReproducer(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := EmitReproducer(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same spec emitted to different paths: %s vs %s", p1, p2)
	}
	loaded, err := LoadSpec(p1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != spec {
		t.Fatalf("reproducer round trip changed the spec: %+v", loaded)
	}
	if fi, err := os.Stat(p1); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("reproducer stat: %v %v", fi, err)
	}
}
