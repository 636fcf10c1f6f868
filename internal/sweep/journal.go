package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
)

// Record statuses. The engine's own records leave Status empty (every job
// it journals succeeded); sweepd writes both, so its batch journals and
// results files also record failures.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Record is one line of a JSONL journal: the engine's resume log, a sweepd
// batch journal or results file, and the GET /v1/jobs/{fingerprint}
// response. Field order is the wire format; Status and Error are omitted
// when empty, so engine records and sweepd records share one shape.
type Record struct {
	Fingerprint string          `json:"fingerprint"`
	Seed        int64           `json:"seed"`
	Key         JobKey          `json:"key"`
	Status      string          `json:"status,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Flusher is the subset of bufio.Writer the engine uses to push buffered
// journal bytes to the OS after every record (see Config.Journal).
type Flusher interface{ Flush() error }

// appendRecord writes the record as one line in a single Write call and
// flushes it when w buffers.
func appendRecord(w io.Writer, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	if f, ok := w.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// maxRecordBytes bounds one journal line; a Fig. 1 series with 500 samples
// marshals well under this.
const maxRecordBytes = 64 << 20

// ReadJournal streams the intact records of a JSONL journal to fn in file
// order, one at a time. Unparseable lines — the torn tail of a killed
// writer — are skipped, not fatal. A record whose stored fingerprint is not
// the one its key hashes to (a journal from an older key schema) is
// distrusted and skipped, and only the first record per fingerprint is
// delivered, so a journal that accumulated duplicates across repeated
// crash/resume cycles replays to the same state.
func ReadJournal(r io.Reader, fn func(Record)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), maxRecordBytes)
	seen := make(map[string]bool)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Key.Fingerprint() != rec.Fingerprint || seen[rec.Fingerprint] {
			continue
		}
		seen[rec.Fingerprint] = true
		fn(rec)
	}
	return sc.Err()
}

// Journal is an append-only JSONL journal file. Each Write lands in the
// file with one write call, so a record is in the OS as soon as it is
// appended: killing the process loses at most the line being written. It
// does not fsync (see Config.Journal). Concurrent appends are safe: the
// file serializes whole Write calls, so lines never interleave.
type Journal struct {
	f *os.File
}

// OpenJournal opens (creating if needed) the journal at path for appending.
// A torn final line left by a killed writer is terminated first, so the
// next record starts on a line of its own and ReadJournal skips only the
// torn one.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminateTail(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &Journal{f: f}, nil
}

// terminateTail appends a newline when the file ends mid-line.
func terminateTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte("\n"))
	return err
}

// Write appends raw bytes; the engine hands it one whole record per call.
func (j *Journal) Write(p []byte) (int, error) { return j.f.Write(p) }

// Append writes one record as a line.
func (j *Journal) Append(rec Record) error { return appendRecord(j, rec) }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
