package conformance

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/manetlab/ldr/internal/scenario"
)

// twoNodes is a scripted two-node line for the hostile-fault shapes.
func twoNodes(faults ...ScriptFault) Spec {
	return Spec{Protocol: "ldr", Nodes: 2, SimTimeSec: 5, Seed: 1,
		Script: &Script{Positions: [][2]float64{{0, 0}, {100, 0}}, Faults: faults}}
}

// hostileSpecs are specs a seed file can carry that name nodes the
// network will not have, or draw random flows among fewer than two.
var hostileSpecs = []struct {
	name string
	spec Spec
}{
	{"negative node count", Spec{Protocol: "ldr", Nodes: -3, SimTimeSec: 5, Seed: 1}},
	{"negative count, profile", Spec{Protocol: "ldr", Nodes: -3, SimTimeSec: 5, Seed: 1, Profile: "reboot"}},
	{"random flows, no nodes", Spec{Protocol: "ldr", Nodes: 0, Flows: 1, SimTimeSec: 3, Seed: 1}},
	{"random flows, one node", Spec{Protocol: "ldr", Nodes: 1, Flows: 1, SimTimeSec: 3, Seed: 1}},
	{"crash past the last node", twoNodes(ScriptFault{Kind: "crash", AtMS: 100, Nodes: []int{9}})},
	{"crash on a negative node", twoNodes(ScriptFault{Kind: "crash", AtMS: 100, Nodes: []int{-1}})},
	{"linkdown past the last node", twoNodes(ScriptFault{Kind: "linkdown", AtMS: 100, Nodes: []int{0, 9}})},
}

// TestHostileSpecIsAnError: CheckSpec on a spec whose node count is
// negative, whose random flows have fewer than two nodes to pick from, or
// whose scripted fault names a node outside [0, Nodes), returns an error
// instead of panicking inside the network.
func TestHostileSpecIsAnError(t *testing.T) {
	for _, c := range hostileSpecs {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("CheckSpec panicked: %v", r)
				}
			}()
			if _, err := CheckSpec(c.spec); err == nil {
				t.Fatal("CheckSpec accepted the spec")
			}
		})
	}
}

// FuzzLoadSpec feeds arbitrary bytes to LoadSpec. A spec that loads must
// survive being written the way EmitReproducer writes it and read back
// unchanged; one small enough to build (at most 64 nodes and 60 s) must
// expand and build, without running, with no panic. `go test` runs the
// committed seeds and the hostile shapes; `make fuzz-smoke` fuzzes for
// 20 s.
func FuzzLoadSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "*", "testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		if filepath.Base(path) == "golden.json" {
			continue // TestGoldenFingerprints' data, not a Spec
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// A key the Spec no longer has, as the seed files of a deleted axis
	// carried: an error, never a scenario without it.
	f.Add([]byte(`{"protocol": "olsr", "nodes": 16, "flows": 4, "simtime_sec": 10, "seed": 1, "profile": "none", "radio": "asym"}`))
	f.Add([]byte(`{"protocol": "ldr", "nodes": 12, "flows": 3, "simtime_sec": 6, "seed": 31, "profile": "reboot", "mobility": "waypoint"}`))
	for _, c := range hostileSpecs {
		blob, err := json.Marshal(c.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	path := filepath.Join(f.TempDir(), "seed.json")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSpec(path)
		if err != nil {
			return
		}
		out, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("a loaded spec does not encode: %v", err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("a re-encoded spec does not load: %v\n%s", err, out)
		}
		// omitempty writes an empty list as nothing, which loads as nil.
		if sc := s.Script; sc != nil {
			if len(sc.Traffic) == 0 {
				sc.Traffic = nil
			}
			if len(sc.Faults) == 0 {
				sc.Faults = nil
			}
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("re-encoded spec loads back as\n%+v\nwant\n%+v", back, s)
		}
		if s.Nodes > 64 || s.SimTimeSec > 60 {
			return
		}
		cfg, err := s.Config()
		if err != nil {
			return
		}
		_, _, _, _ = scenario.BuildInstrumented(cfg) // an error is a fine answer; a panic is not
	})
}
