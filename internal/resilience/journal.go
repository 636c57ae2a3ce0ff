// Package resilience makes long experiment sweeps crash-safe.
//
// The paper's §5 argument is that LDR survives node crashes because its
// (sn, fd) labels persist in stable storage. This package is the same
// idea applied to the harness itself: a nightly chaos sweep that
// is SIGKILLed, hangs, or panics at cell 900/1000 must not lose the 899
// finished cells. It provides
//
//   - a content-addressed sweep journal (SpecHash + Journal): each cell's
//     scenario.Config is hashed canonically; completed results are
//     persisted one record per file with write-temp → fsync → rename, so
//     a crash can only ever lose records — the one being written, or ones
//     whose directory entry Sync has not yet persisted — and lost cells
//     deterministically re-run on resume; a finished record is never
//     corrupt;
//   - typed cell failures (CellPanic, CellTimeout) that carry enough
//     context — spec, stack, heartbeat age — to quarantine, retry, or
//     reproduce a cell without rerunning the sweep;
//   - the failure manifest written next to the journal when a sweep
//     finishes degraded, and the SIGINT/SIGTERM handler that prints the
//     exact resume command.
//
// The journal is single-writer: one process per journal directory.
// Records are idempotent and content-addressed, so resuming a sweep —
// or sharing identical cells across one — is a map lookup.
package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/manetlab/ldr/internal/scenario"
)

// specHashVersion is mixed into every spec hash. Bump it whenever the
// canonicalization below (or the semantics of scenario.Config fields)
// changes incompatibly: old journal records then simply never match, and
// cells re-run instead of replaying stale payloads.
const specHashVersion = "ldr-spec-v1"

// SpecHash content-addresses one sweep cell. The canonical form is the
// encoding/json serialization of the scenario.Config: struct fields
// marshal in declaration order, durations as int64 nanoseconds, and
// float64s in shortest round-trip form, so the bytes are a pure function
// of the config's values. The scope string namespaces the payload type
// that callers store under the hash (e.g. "metrics" vs "chaos"), so two
// harnesses sweeping the same config into one journal can never replay
// each other's payloads.
func SpecHash(scope string, cfg scenario.Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("resilience: hashing spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(specHashVersion))
	h.Write([]byte{0})
	h.Write([]byte(scope))
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// recordExt distinguishes cell records from the manifest and reproducer
// files that share the journal directory.
const recordExt = ".cell.json"

// recordVersion is the on-disk envelope version.
const recordVersion = 1

// record is the on-disk envelope of one completed cell. The checksum
// covers the payload bytes, so a torn write — a record truncated at any
// byte by a crash — fails either JSON parsing or the checksum and is
// treated as "cell not completed", never as corrupt data.
type record struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// Journal is a crash-safe store of completed sweep cells, one record per
// file under a directory. All methods are safe for concurrent use within
// one process; the directory itself is single-writer.
type Journal struct {
	dir string

	mu      sync.Mutex
	records map[string][]byte // key → payload
	corrupt int
	dirty   bool       // renamed records whose directory entry is not yet synced
	pending int        // records mid-write in background writers
	done    *sync.Cond // signaled when pending drops to zero
	werr    error      // first background write failure, surfaced by Sync
}

// Open creates the directory if needed and loads every valid record.
// Torn or corrupt records (e.g. from a crash mid-write, which the
// temp+rename protocol makes nearly impossible, or from a truncated
// filesystem) are counted in Corrupt and otherwise ignored — the cells
// they would have covered simply re-run.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("resilience: journal directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: creating journal: %w", err)
	}
	j := &Journal{dir: dir, records: make(map[string][]byte)}
	j.done = sync.NewCond(&j.mu)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, recordExt) {
			continue
		}
		key := strings.TrimSuffix(name, recordExt)
		payload, ok := loadRecord(filepath.Join(dir, name), key)
		if !ok {
			j.corrupt++
			continue
		}
		j.records[key] = payload
	}
	return j, nil
}

// loadRecord reads and validates one record file.
func loadRecord(path, key string) ([]byte, bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var rec record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, false
	}
	if rec.V != recordVersion || rec.Key != key || len(rec.Payload) == 0 {
		return nil, false
	}
	sum := sha256.Sum256(rec.Payload)
	if hex.EncodeToString(sum[:]) != rec.Sum {
		return nil, false
	}
	return rec.Payload, true
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Len returns the number of completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Corrupt returns the number of record files Open rejected.
func (j *Journal) Corrupt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.corrupt
}

// Get returns the payload recorded for key. Callers must not mutate the
// returned bytes.
func (j *Journal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.records[key]
	return p, ok
}

// Put records a completed cell. The record becomes visible to Get
// immediately; its file is written temp → fsync → rename by a background
// writer so the disk barrier stays off the sweep workers' critical path.
// Records are content-addressed and idempotent, so they need no ordering
// between each other: a kill -9 before Sync can forget queued records —
// their cells deterministically re-run on resume — but a record that
// reaches disk is never corrupt, because its bytes are fsynced before
// the rename makes it visible. Re-putting an existing key is a no-op.
// Write failures surface on Sync.
//
// The payload must be JSON as json.Marshal writes it: the envelope carries
// it compacted and HTML-escaped, so any other form would reopen as other
// bytes, fail its checksum and re-run the cell on every resume. Put
// refuses such a payload.
func (j *Journal) Put(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	blob, err := json.Marshal(record{
		V:       recordVersion,
		Key:     key,
		Sum:     hex.EncodeToString(sum[:]),
		Payload: json.RawMessage(payload),
	})
	if err != nil {
		return fmt.Errorf("resilience: encoding record: %w", err)
	}
	var carried record
	if err := json.Unmarshal(blob, &carried); err != nil || !bytes.Equal(carried.Payload, payload) {
		return fmt.Errorf("resilience: payload is not compact JSON, so it would not reopen as written")
	}

	j.mu.Lock()
	if _, ok := j.records[key]; ok {
		j.mu.Unlock()
		return nil
	}
	j.records[key] = payload
	j.dirty = true
	j.pending++
	j.mu.Unlock()

	// One goroutine per record, not a serial queue: concurrent fsyncs to
	// the same filesystem batch into shared journal commits, so a burst
	// of finishing cells pays ~one barrier, not one each. The temp →
	// fsync → rename protocol is intact; only its position moves — off
	// the sweep workers.
	go j.write(key+recordExt, append(blob, '\n'))
	return nil
}

// write performs one background record write and accounts for it.
func (j *Journal) write(name string, blob []byte) {
	err := writeFileDurable(j.dir, name, blob)
	j.mu.Lock()
	if err != nil && j.werr == nil {
		j.werr = err
	}
	j.pending--
	if j.pending == 0 {
		j.done.Broadcast()
	}
	j.mu.Unlock()
}

// Sync waits for every queued record to reach disk, persists the
// directory entries, and reports the first background write failure.
// Sweeps call it once at completion (and the signal handler on the way
// out), amortizing the directory barrier across all of a sweep's Puts.
// After Sync returns nil, a kill -9 cannot lose a recorded cell.
func (j *Journal) Sync() error {
	j.mu.Lock()
	for j.pending > 0 {
		j.done.Wait()
	}
	err := j.werr
	dirty := j.dirty
	j.dirty = false
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if dirty {
		return syncDir(j.dir)
	}
	return nil
}

// WriteDurable writes name under dir with the full temp → fsync →
// rename → dir-fsync protocol. Reproducer seeds use it (manifests go
// through WriteManifest); unlike journal records these are emitted on
// failure paths where latency is irrelevant and immediate durability is
// the point.
func WriteDurable(dir, name string, blob []byte) error {
	return writeDurable(dir, name, blob)
}

// writeDurable writes name under dir with the temp → fsync → rename →
// dir-fsync protocol used for manifests and reproducers; records go
// through writeFileDurable + Journal.Sync instead so the directory
// barrier is paid once per sweep, not once per cell.
func writeDurable(dir, name string, blob []byte) error {
	if err := writeFileDurable(dir, name, blob); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir persists a directory's entries; best-effort on filesystems
// that refuse to sync directories.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// writeFileDurable writes name under dir via temp → fsync → rename. The
// file's bytes are durable before the rename makes them visible; the
// directory entry is the caller's to sync.
func writeFileDurable(dir, name string, blob []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("resilience: temp record: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resilience: writing record: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resilience: syncing record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: closing record: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: record mode: %w", err)
	}
	final := filepath.Join(dir, name)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: committing record: %w", err)
	}
	return nil
}
