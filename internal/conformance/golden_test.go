package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from this build")

// goldenCell is what one pinned run must reproduce: the run fingerprint
// and the hash of the collector's canonical JSON. Both are sums and
// counts, so they do not depend on the order of same-instant events.
// Cells without crashes also pin the hash of the whole trace log; a
// crash drains the pending buffers in one instant, and the order of
// those drops was map order when the file was first generated.
type goldenCell struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Collector   string      `json:"collector_sha256"`
	Trace       string      `json:"trace_sha256,omitempty"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenSpecs is the pinned matrix: every protocol under no faults, the
// crash-heavy reboot profile and one-way links. The strip is sparser
// than Spec's default so discoveries retry, give up and rediscover.
// Audited, so the collector also pins the loop-check counters.
func goldenSpecs() map[string]Spec {
	specs := make(map[string]Spec)
	for i, proto := range []string{"ldr", "aodv", "dsr", "dsr7", "olsr"} {
		base := Spec{
			Protocol: proto, Nodes: 20, Flows: 5, SimTimeSec: 15, Seed: int64(101 + i),
			Profile: "none", AuditMS: 100, TerrainW: 1800, TerrainH: 300,
		}
		specs[proto+"/plain"] = base
		reboot := base
		reboot.Profile = "reboot"
		specs[proto+"/reboot"] = reboot
		asym := base
		asym.Radio = "asym"
		specs[proto+"/asym"] = asym
	}
	return specs
}

// TestGoldenFingerprints compares this build against numbers committed
// from an earlier one, which is what makes it a refactoring oracle: the
// other byte-identical tests compare two runs of the same build. A
// deliberate behaviour change regenerates the file with -update.
func TestGoldenFingerprints(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string]goldenCell)
	for name, spec := range goldenSpecs() {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log, col, err := capture(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := json.Marshal(col)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell := goldenCell{Fingerprint: log.Fingerprint, Collector: sha256Hex(blob)}
		if spec.Profile == "none" {
			cell.Trace = sha256Hex(log.Bytes())
		}
		got[name] = cell
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the matrix has %d", path, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s diverged from the committed run:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
