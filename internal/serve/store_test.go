package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mgpucompress/internal/sweep"
)

func testKey(workload, policy string, scale int) sweep.JobKey {
	return sweep.JobKey{Workload: workload, Policy: policy, Scale: scale}
}

func testRecord(k sweep.JobKey) sweep.Record {
	return sweep.Record{
		Fingerprint: k.Fingerprint(),
		Seed:        k.Seed(),
		Key:         k,
		Status:      sweep.StatusOK,
		Result:      json.RawMessage(`{"value":"` + k.Workload + `"}`),
	}
}

func TestBatchIDContinuity(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if id := st.NewBatchID(); id != "b000001" {
		t.Fatalf("first ID = %q, want b000001", id)
	}
	id2 := st.NewBatchID()
	if id2 != "b000002" {
		t.Fatalf("second ID = %q, want b000002", id2)
	}
	// IDs are only durable once a batch directory exists.
	if err := st.WriteManifest(Manifest{ID: id2, Keys: []sweep.JobKey{testKey("AES", "fpc", 1)}}); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if id := st2.NewBatchID(); id != "b000003" {
		t.Fatalf("ID after reopen = %q, want b000003 (continue past stored batches)", id)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []Manifest{
		{ID: "b000001", Tenant: "alice", Keys: []sweep.JobKey{testKey("AES", "fpc", 1)}},
		{ID: "b000002", Keys: []sweep.JobKey{testKey("BS", "bdi", 2), testKey("MM", "", 0)}},
	}
	// Write out of order: LoadManifests must sort by ID.
	for i := len(want) - 1; i >= 0; i-- {
		if err := st.WriteManifest(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A torn manifest (crash mid-write before rename never leaves one, but a
	// corrupted disk might) is skipped, not fatal.
	if err := os.MkdirAll(st.batchDir("b000003"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.manifestPath("b000003"), []byte(`{"id":"b0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A batch dir with no manifest at all (crash between mkdir and write).
	if err := os.MkdirAll(st.batchDir("b000004"), 0o755); err != nil {
		t.Fatal(err)
	}

	got, err := st.LoadManifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "b000001" || got[1].ID != "b000002" {
		t.Fatalf("LoadManifests = %+v, want the two intact manifests in ID order", got)
	}
	if got[0].Tenant != "alice" || len(got[1].Keys) != 2 {
		t.Fatalf("manifest content mangled: %+v", got)
	}
}

func TestWriteResultsPureAndAtomic(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "b000001"
	if err := os.MkdirAll(st.batchDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	recs := []sweep.Record{testRecord(testKey("AES", "fpc", 1)), testRecord(testKey("BS", "bdi", 2))}
	if err := st.WriteResults(id, recs); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(st.resultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteResults(id, recs); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(st.resultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("WriteResults is not a pure function of the records")
	}
	// No temp residue: the write landed via rename.
	if _, err := os.Stat(st.resultsPath(id) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if !st.HasResults(id) {
		t.Fatal("HasResults false after WriteResults")
	}

	var back []sweep.Record
	if err := sweep.ReadJournal(bytes.NewReader(second), func(rec sweep.Record) { back = append(back, rec) }); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Fingerprint != recs[0].Fingerprint {
		t.Fatalf("ReadResults = %+v", back)
	}
}

func TestOpenReplayReaderPrefersResults(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "b000001"
	if err := os.MkdirAll(st.batchDir(id), 0o755); err != nil {
		t.Fatal(err)
	}

	replay := func() string {
		rc, err := st.OpenReplayReader(id)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// No files at all: an empty stream, not an error.
	if got := replay(); got != "" {
		t.Fatalf("empty batch replay = %q", got)
	}

	if err := os.WriteFile(st.journalPath(id), []byte("journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replay(); got != "journal\n" {
		t.Fatalf("in-flight batch replays %q, want the journal", got)
	}

	if err := os.WriteFile(st.resultsPath(id), []byte("results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replay(); got != "results\n" {
		t.Fatalf("settled batch replays %q, want the results file", got)
	}
}

// TestJournalFilesLiveUnderBatchDir: a batch streams its records to
// <data>/batches/<id>/journal.jsonl as jobs settle, next to its manifest.
func TestJournalFilesLiveUnderBatchDir(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, dir, nil)
	st, err := s.Submit(BatchRequest{Keys: []sweep.JobKey{testKey("AES", "", 0), testKey("FAIL", "", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s, st.ID)
	for _, name := range []string{"manifest.json", "journal.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, "batches", st.ID, name)); err != nil {
			t.Fatalf("%s not where expected: %v", name, err)
		}
	}
	f, err := os.Open(filepath.Join(dir, "batches", st.ID, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	statuses := map[string]string{}
	if err := sweep.ReadJournal(f, func(rec sweep.Record) { statuses[rec.Key.Workload] = rec.Status }); err != nil {
		t.Fatal(err)
	}
	if statuses["AES"] != sweep.StatusOK || statuses["FAIL"] != sweep.StatusFailed || len(statuses) != 2 {
		t.Fatalf("journal records = %v, want AES ok and FAIL failed", statuses)
	}
}
