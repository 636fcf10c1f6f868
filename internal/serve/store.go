package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mgpucompress/internal/sweep"
)

// Store is the service's on-disk state: one directory per batch under
// <dir>/batches, holding
//
//	manifest.json  — the batch plan, written before any job runs
//	journal.jsonl  — streamed completion-order records, flushed per record
//	results.jsonl  — canonical-order records, written once, atomically,
//	                 when the batch settles; its presence means "done"
//
// The split mirrors the durability story: the journal is the crash log (a
// SIGKILL loses at most a partial tail line, which replay tolerates), the
// results file is the deterministic artifact (byte-identical for a batch
// run fresh, served warm from the memo cache, or resumed after a crash).
// Neither file records wall time: everything persisted is a pure function
// of the job keys and their results.
type Store struct {
	dir string

	mu     sync.Mutex
	nextID int
}

// batchPrefix is the batch ID format: "b" + six digits, assigned in
// submission order and continued across restarts.
const batchPrefix = "b"

// OpenStore opens (creating if needed) the service data directory and
// scans it so newly assigned batch IDs continue after the highest on disk.
func OpenStore(dir string) (*Store, error) {
	st := &Store{dir: dir, nextID: 1}
	if err := os.MkdirAll(st.batchesDir(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	entries, err := os.ReadDir(st.batchesDir())
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), batchPrefix+"%06d", &n); err == nil && n >= st.nextID {
			st.nextID = n + 1
		}
	}
	return st, nil
}

func (st *Store) batchesDir() string        { return filepath.Join(st.dir, "batches") }
func (st *Store) batchDir(id string) string { return filepath.Join(st.batchesDir(), id) }

// manifestPath etc. name the three per-batch files.
func (st *Store) manifestPath(id string) string {
	return filepath.Join(st.batchDir(id), "manifest.json")
}
func (st *Store) journalPath(id string) string {
	return filepath.Join(st.batchDir(id), "journal.jsonl")
}
func (st *Store) resultsPath(id string) string {
	return filepath.Join(st.batchDir(id), "results.jsonl")
}

// NewBatchID reserves the next batch ID.
func (st *Store) NewBatchID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := fmt.Sprintf("%s%06d", batchPrefix, st.nextID)
	st.nextID++
	return id
}

// WriteManifest persists the batch plan atomically (tmp + rename), creating
// the batch directory. A manifest without a results file is the signature
// of an in-flight batch the daemon must resume at startup.
func (st *Store) WriteManifest(m Manifest) error {
	if err := os.MkdirAll(st.batchDir(m.ID), 0o755); err != nil {
		return fmt.Errorf("serve: batch dir %s: %w", m.ID, err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("serve: manifest %s: %w", m.ID, err)
	}
	return atomicWrite(st.manifestPath(m.ID), append(b, '\n'))
}

// LoadManifests returns every stored batch manifest, sorted by ID — the
// deterministic resume order.
func (st *Store) LoadManifests() ([]Manifest, error) {
	entries, err := os.ReadDir(st.batchesDir())
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), batchPrefix) {
			continue
		}
		b, err := os.ReadFile(st.manifestPath(e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // crashed between mkdir and manifest write: no plan, nothing to resume
			}
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil || m.ID != e.Name() {
			continue // torn manifest: unreadable plan, skip rather than guess
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// HasResults reports whether the batch has settled (its results file
// exists).
func (st *Store) HasResults(id string) bool {
	_, err := os.Stat(st.resultsPath(id))
	return err == nil
}

// OpenResults opens the batch's results journal for reading.
func (st *Store) OpenResults(id string) (io.ReadCloser, error) {
	return os.Open(st.resultsPath(id))
}

// WriteResults persists the canonical-order record set atomically. The
// bytes are a pure function of the records, so equal batches produce
// byte-identical files no matter how they were scheduled.
func (st *Store) WriteResults(id string, recs []sweep.Record) error {
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("serve: results %s: %w", id, err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return atomicWrite(st.resultsPath(id), buf)
}

// atomicWrite lands the bytes under path via a temp file and rename, so a
// crash never leaves a half-written file where a complete one is expected.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// OpenReplayReader opens the record stream that best describes the batch —
// the results file once the batch settled, else the streamed journal — for
// sweep.ReadJournal and the engine's Resume. A batch with neither file
// reads as empty.
func (st *Store) OpenReplayReader(id string) (io.ReadCloser, error) {
	if st.HasResults(id) {
		return os.Open(st.resultsPath(id))
	}
	f, err := os.Open(st.journalPath(id))
	if os.IsNotExist(err) {
		return io.NopCloser(strings.NewReader("")), nil
	}
	return f, err
}
