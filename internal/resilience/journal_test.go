package resilience

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/scenario"
)

func TestSpecHashDeterministicAndSensitive(t *testing.T) {
	a := scenario.Nodes50(scenario.LDR, 10, 30*time.Second, 42)
	b := scenario.Nodes50(scenario.LDR, 10, 30*time.Second, 42)

	ha, err := SpecHash("metrics", a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := SpecHash("metrics", b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("identical configs hashed differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Fatalf("hash %q is not a sha256 hex digest", ha)
	}

	// Any config difference must change the hash.
	c := a
	c.Seed++
	if hc, _ := SpecHash("metrics", c); hc == ha {
		t.Fatal("seed change did not change the spec hash")
	}
	// The scope namespaces payload types: same config, different scope,
	// different key.
	if hs, _ := SpecHash("chaos", a); hs == ha {
		t.Fatal("scope change did not change the spec hash")
	}
}

func TestJournalPutGetReload(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d records", j.Len())
	}
	if err := j.Put("aaaa", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("bbbb", []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put.
	if err := j.Put("aaaa", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j.Len())
	}
	if p, ok := j.Get("aaaa"); !ok || string(p) != `{"x":1}` {
		t.Fatalf("Get(aaaa) = %q, %v", p, ok)
	}

	// Sync drains the background writer; only then are the record files
	// guaranteed on disk for another process to load.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	// A second Open sees exactly the same records.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 || j2.Corrupt() != 0 {
		t.Fatalf("reloaded journal: Len=%d Corrupt=%d", j2.Len(), j2.Corrupt())
	}
	if p, ok := j2.Get("bbbb"); !ok || string(p) != `{"x":2}` {
		t.Fatalf("reloaded Get(bbbb) = %q, %v", p, ok)
	}

	// The manifest never masquerades as a cell record.
	if _, err := WriteManifest(dir, Manifest{Cells: 2}); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Len() != 2 {
		t.Fatalf("manifest leaked into records: Len=%d", j3.Len())
	}
}

// TestJournalTornWrite truncates the last record at every byte boundary
// and asserts the journal either still replays the cell (only when the
// record is fully intact) or treats it as not-yet-run — never as corrupt
// data. This is the crash model for a kill -9 landing mid-write, and the
// reason resume cannot corrupt aggregate output: a damaged record makes
// the cell re-run, and a deterministic cell re-produces the identical
// payload.
func TestJournalTornWrite(t *testing.T) {
	// Build a reference journal with three records; the third is the one
	// we tear.
	ref := t.TempDir()
	j, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string]string{
		"k1": `{"cell":1,"delivery":0.971}`,
		"k2": `{"cell":2,"delivery":0.984}`,
		"k3": `{"cell":3,"delivery":0.993}`,
	}
	for k, p := range payloads {
		if err := j.Put(k, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	last, err := os.ReadFile(filepath.Join(ref, "k3"+recordExt))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(last); cut++ {
		dir := t.TempDir()
		for _, k := range []string{"k1", "k2"} {
			full, err := os.ReadFile(filepath.Join(ref, k+recordExt))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, k+recordExt), full, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "k3"+recordExt), last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		resumed, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		for _, k := range []string{"k1", "k2"} {
			p, ok := resumed.Get(k)
			if !ok || string(p) != payloads[k] {
				t.Fatalf("cut=%d: intact record %s lost: %q, %v", cut, k, p, ok)
			}
		}
		p, ok := resumed.Get("k3")
		if ok {
			// Served records must carry exactly the committed payload —
			// the only truncation that can survive the checksum is the
			// cosmetic trailing newline.
			if string(p) != payloads["k3"] {
				t.Fatalf("cut=%d: torn record served as %q", cut, p)
			}
		} else {
			// Resume path: the cell re-runs and re-puts the same payload;
			// the record must end byte-identical to the uninterrupted one.
			if err := resumed.Put("k3", []byte(payloads["k3"])); err != nil {
				t.Fatalf("cut=%d: re-put after torn write: %v", cut, err)
			}
			if err := resumed.Sync(); err != nil {
				t.Fatalf("cut=%d: sync after re-put: %v", cut, err)
			}
			final, err := os.ReadFile(filepath.Join(dir, "k3"+recordExt))
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			if string(final) != string(last) {
				t.Fatalf("cut=%d: repaired record differs from uninterrupted record", cut)
			}
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{
		Scope: "chaos",
		Cells: 8,
		Failures: []FailureRecord{
			{Index: 3, Key: "abc", Kind: "panic", Error: "cell 3 panicked: boom", Stack: "goroutine 1 ...", Repro: "repro-abc.json"},
			{Index: 5, Kind: "timeout", Error: "cell 5 exceeded 2s watchdog deadline"},
		},
	}
	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != ManifestName {
		t.Fatalf("manifest written to %q", path)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scope != m.Scope || got.Cells != m.Cells || len(got.Failures) != 2 ||
		got.Failures[0] != m.Failures[0] || got.Failures[1] != m.Failures[1] {
		t.Fatalf("manifest round-trip mismatch: %+v", got)
	}
	if Kind(&CellPanic{}) != "panic" || Kind(&CellTimeout{}) != "timeout" || Kind(os.ErrNotExist) != "error" {
		t.Fatal("Kind misclassified")
	}
}

func TestResumeCommand(t *testing.T) {
	got := ResumeCommand([]string{"ldrbench", "-exp", "table1", "-journal", "/tmp/j"})
	if want := "ldrbench -exp table1 -journal /tmp/j -resume"; got != want {
		t.Fatalf("ResumeCommand = %q, want %q", got, want)
	}
	// Already-resuming invocations are not double-flagged.
	got = ResumeCommand([]string{"ldrbench", "-journal", "/tmp/j", "-resume"})
	if strings.Count(got, "-resume") != 1 {
		t.Fatalf("ResumeCommand duplicated -resume: %q", got)
	}
	// Arguments with spaces stay shell-safe.
	got = ResumeCommand([]string{"ldrbench", "-out", "my dir/out.txt"})
	if want := "ldrbench -out 'my dir/out.txt' -resume"; got != want {
		t.Fatalf("ResumeCommand = %q, want %q", got, want)
	}
	// An explicit -resume=<v> of either spelling becomes a bare -resume:
	// kept as -resume=false, the line would be refused by the non-empty
	// journal it is meant to resume.
	for _, form := range []string{"-resume=false", "--resume=false", "-resume=0", "-resume=true", "--resume=1"} {
		got = ResumeCommand([]string{"ldrbench", form, "-journal", "/tmp/j"})
		if want := "ldrbench -resume -journal /tmp/j"; got != want {
			t.Fatalf("ResumeCommand with %s = %q, want %q", form, got, want)
		}
	}
}

func TestCellDeadlineScaling(t *testing.T) {
	if d := CellDeadline(0, 100, 30); d != 0 {
		t.Fatalf("disabled watchdog scaled to %v", d)
	}
	base := 10 * time.Second
	small := CellDeadline(base, 20, 5)  // scale 1
	paper := CellDeadline(base, 50, 10) // scale 1+2+1 = 4
	big := CellDeadline(base, 100, 30)  // scale 1+4+3 = 8
	if small != base || paper != 4*base || big != 8*base {
		t.Fatalf("deadlines = %v, %v, %v", small, paper, big)
	}
}

// FuzzJournalRecord writes arbitrary bytes as a cell record and opens the
// journal: Open must not panic, and must either count the record corrupt
// or serve its payload from Get. The same bytes are then offered to Put as
// a payload: if Put takes them, they must reopen byte-identical after
// Sync. The corpus is a record Put wrote and each of its truncations;
// `make fuzz-smoke` fuzzes for 20 s.
func FuzzJournalRecord(f *testing.F) {
	const key, other = "k1", "k2"
	dir := f.TempDir()
	j, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"cell": 1, "delivery": 0.971, "notes": []string{"a<b"}})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Put(key, payload); err != nil {
		f.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		f.Fatal(err)
	}
	record, err := os.ReadFile(filepath.Join(dir, key+recordExt))
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(record); cut++ {
		f.Add(record[:cut])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+recordExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := j.Get(key); ok == (j.Corrupt() == 1) || j.Len()+j.Corrupt() != 1 {
			t.Fatalf("record %q: served %v, Len %d, Corrupt %d", blob, ok, j.Len(), j.Corrupt())
		}
		if err := j.Put(other, blob); err != nil {
			return
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		back, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := back.Get(other); !ok || !bytes.Equal(p, blob) {
			t.Fatalf("Put took payload %q and it reopens as %q, %v", blob, p, ok)
		}
	})
}
