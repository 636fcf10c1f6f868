package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func okRecord(k JobKey) Record {
	return Record{
		Fingerprint: k.Fingerprint(),
		Seed:        k.Seed(),
		Key:         k,
		Status:      StatusOK,
		Result:      json.RawMessage(`{"value":"` + k.Workload + `"}`),
	}
}

// readAll collects what ReadJournal delivers from the file at path.
func readAll(t *testing.T, path string) []Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []Record
	if err := ReadJournal(f, func(rec Record) { recs = append(recs, rec) }); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	good := okRecord(JobKey{Workload: "AES", Policy: "fpc", Scale: 1})
	line, _ := json.Marshal(good)
	// A journal whose final line was cut mid-record by a crash.
	torn := append(append([]byte{}, line...), '\n')
	torn = append(torn, []byte(`{"fingerprint":"deadbeef","seed":12,"ke`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if recs := readAll(t, path); len(recs) != 1 || recs[0].Fingerprint != good.Fingerprint {
		t.Fatalf("ReadJournal over torn tail = %+v, want just the intact record", recs)
	}

	// Appending after the crash must start on a fresh line, not glue the new
	// record onto the torn tail.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	next := okRecord(JobKey{Workload: "BS", Policy: "bdi", Scale: 2})
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := readAll(t, path); len(recs) != 2 || recs[1].Fingerprint != next.Fingerprint {
		t.Fatalf("journal after post-crash append = %+v, want 2 records", recs)
	}
}

func TestReadJournalDistrustsStoredFingerprints(t *testing.T) {
	good := okRecord(JobKey{Workload: "AES", Policy: "fpc", Scale: 1})
	stale := okRecord(JobKey{Workload: "BS", Policy: "bdi", Scale: 2})
	stale.Fingerprint = "0000000000000000" // key no longer hashes to this
	dup := good                            // duplicate fingerprint: first record wins
	dup.Result = json.RawMessage(`{"value":"SECOND"}`)

	var buf bytes.Buffer
	for _, rec := range []Record{good, stale, dup} {
		line, _ := json.Marshal(rec)
		buf.Write(line)
		buf.WriteByte('\n')
	}
	var recs []Record
	if err := ReadJournal(&buf, func(rec Record) { recs = append(recs, rec) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Fingerprint != good.Fingerprint {
		t.Fatalf("ReadJournal = %+v, want only the first intact record", recs)
	}
	if string(recs[0].Result) != string(good.Result) {
		t.Fatalf("duplicate fingerprint replaced the first record: %s", recs[0].Result)
	}
}

// TestResumeAfterTornJournalReopen is the resume-file path of a command
// that both replays and extends one journal: a run killed mid-record leaves
// a file ending in a partial line; the next run reopens it with
// OpenJournal, resumes from it, and appends what it simulates. A third
// engine resumed from the result must load every intact old record plus the
// new one.
func TestResumeAfterTornJournalReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	run := func(k JobKey) (string, error) { return "v:" + k.Workload, nil }
	old := []JobKey{{Workload: "A"}, {Workload: "B"}, {Workload: "C"}}

	var first bytes.Buffer
	e := New(Config[string]{Workers: 1, Run: run, Journal: &first})
	if err := e.Prefetch(old); err != nil {
		t.Fatal(err)
	}
	full := first.Bytes()
	killed := append(append([]byte{}, full...), full[:40]...) // dies 40 bytes into a fourth record
	if err := os.WriteFile(path, killed, 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	second := New(Config[string]{Workers: 1, Journal: j, Run: func(k JobKey) (string, error) {
		if k.Workload != "D" {
			t.Errorf("resumed engine re-ran journaled job %s", k.Workload)
		}
		return run(k)
	}})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := second.Resume(f)
	f.Close()
	if err != nil || loaded != len(old) {
		t.Fatalf("Resume = %d, %v; want the %d intact records", loaded, err, len(old))
	}
	if err := second.Prefetch(append(old, JobKey{Workload: "D"})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	third := New(Config[string]{Workers: 1, Run: func(k JobKey) (string, error) {
		return "", errors.New("third engine must not run " + k.Workload)
	}})
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if loaded, err := third.Resume(f); err != nil || loaded != 4 {
		t.Fatalf("Resume of the reopened journal = %d, %v; want 3 old records plus the new one", loaded, err)
	}
	for _, k := range append(old, JobKey{Workload: "D"}) {
		if got, err := third.Get(k); err != nil || got != "v:"+k.Workload {
			t.Fatalf("Get(%s) = %q, %v", k.Workload, got, err)
		}
	}
}

// TestRecordFormatPinned pins the journal wire format: an engine success
// record and sweepd's ok and failed records, byte for byte. Results files
// and resume journals written before Record gained its status fields must
// keep reading and writing these exact lines.
func TestRecordFormatPinned(t *testing.T) {
	var engine bytes.Buffer
	e := New(Config[map[string]int]{Workers: 1, Journal: &engine,
		Run: func(k JobKey) (map[string]int, error) { return map[string]int{"cycles": 1454, "scale": k.Scale}, nil }})
	if _, err := e.Get(JobKey{Workload: "SC", Policy: "adaptive", Lambda: 6, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	const wantEngine = `{"fingerprint":"6fa97bbe0a5a80e1","seed":4546372228255053101,"key":{"workload":"SC","policy":"adaptive","lambda":6,"scale":2},"result":{"cycles":1454,"scale":2}}` + "\n"
	if engine.String() != wantEngine {
		t.Fatalf("engine record:\n got %s\nwant %s", engine.String(), wantEngine)
	}

	ok := JobKey{Workload: "AES", Policy: "bdi", Scale: 1}
	failed := JobKey{Workload: "FAIL", Scale: 1}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Fingerprint: ok.Fingerprint(), Seed: ok.Seed(), Key: ok, Status: StatusOK, Result: json.RawMessage(`{"value":"AES/bdi","n":4}`)},
		{Fingerprint: failed.Fingerprint(), Seed: failed.Seed(), Key: failed, Status: StatusFailed, Error: "workload FAIL always fails"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	const wantServe = `{"fingerprint":"d680aa1c9b69cd36","seed":7206193667242456602,"key":{"workload":"AES","policy":"bdi","scale":1},"status":"ok","result":{"value":"AES/bdi","n":4}}` + "\n" +
		`{"fingerprint":"9443efb91a1b9df0","seed":7305066640073471300,"key":{"workload":"FAIL","scale":1},"status":"failed","error":"workload FAIL always fails"}` + "\n"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantServe {
		t.Fatalf("sweepd records:\n got %s\nwant %s", got, wantServe)
	}

	// The failed record replays as a record but never into the cache.
	r := New(Config[json.RawMessage]{Workers: 1, Run: func(JobKey) (json.RawMessage, error) { return nil, nil }})
	if loaded, err := r.Resume(bytes.NewReader(got)); err != nil || loaded != 1 {
		t.Fatalf("Resume of an ok and a failed record = %d, %v; want only the ok one", loaded, err)
	}
	if _, ok := r.Lookup(failed.Fingerprint()); ok {
		t.Fatal("failed record was loaded into the cache")
	}
}
