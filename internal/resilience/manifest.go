package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the failure manifest's filename inside a journal
// directory. It deliberately does not use recordExt, so Open never
// confuses it with a cell record.
const ManifestName = "manifest.json"

// FailureRecord is one failed cell in a sweep's failure manifest.
type FailureRecord struct {
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"`   // spec hash, when journaled
	Kind  string `json:"kind"`            // "panic", "timeout", or "error"
	Error string `json:"error"`           // the failure's Error() text
	Stack string `json:"stack,omitempty"` // captured stack for panics
	Repro string `json:"repro,omitempty"` // auto-emitted reproducer path
}

// Manifest summarizes a degraded sweep: which cells were quarantined and
// why, written next to the journal so a finished -keep-going run leaves
// a machine-readable account of what its partial results omit.
type Manifest struct {
	Scope    string          `json:"scope,omitempty"`
	Cells    int             `json:"cells"` // total cells in the sweep
	Failures []FailureRecord `json:"failures"`
}

// Kind classifies an error for a FailureRecord.
func Kind(err error) string {
	var p *CellPanic
	if errors.As(err, &p) {
		return "panic"
	}
	var t *CellTimeout
	if errors.As(err, &t) {
		return "timeout"
	}
	return "error"
}

// WriteManifest durably writes the manifest into dir (same temp → fsync
// → rename protocol as cell records) and returns its path.
func WriteManifest(dir string, m Manifest) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("resilience: creating manifest dir: %w", err)
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("resilience: encoding manifest: %w", err)
	}
	if err := writeDurable(dir, ManifestName, append(blob, '\n')); err != nil {
		return "", err
	}
	return filepath.Join(dir, ManifestName), nil
}

// LoadManifest reads a previously written manifest.
func LoadManifest(dir string) (Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("resilience: decoding manifest: %w", err)
	}
	return m, nil
}
