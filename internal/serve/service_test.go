package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mgpucompress/internal/sweep"
)

// testResult is the fake simulator result: a deterministic pure function of
// the job key, cheap enough to run hundreds of times in tests.
type testResult struct {
	Value string `json:"value"`
	N     int    `json:"n"`
}

// testRun is the fake simulator. Two magic workloads exercise the failure
// paths: FAIL errors, PANIC panics — both deterministically.
func testRun(k sweep.JobKey) (testResult, error) {
	switch k.Workload {
	case "FAIL":
		return testResult{}, fmt.Errorf("workload FAIL always fails")
	case "PANIC":
		panic("deliberate test panic")
	}
	return testResult{Value: k.Workload + "/" + k.Policy, N: 3*k.Scale + 1}, nil
}

// newTestService builds a service over dir with the fake simulator; mut may
// adjust the config before construction.
func newTestService(t *testing.T, dir string, mut func(*Config[testResult])) *Service[testResult] {
	t.Helper()
	cfg := Config[testResult]{
		Run:     testRun,
		DataDir: dir,
		Workers: 4,
		Logf:    t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitBatch polls the batch until it leaves StateRunning.
func waitBatch[R any](t *testing.T, s *Service[R], id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := s.Batch(id)
		if !ok {
			t.Fatalf("unknown batch %s", id)
		}
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never settled: %+v", id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func resultsBytes(t *testing.T, dir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(dir + "/batches/" + id + "/results.jsonl")
	if err != nil {
		t.Fatalf("reading results of %s: %v", id, err)
	}
	return b
}

// gateKeys is the determinism-gate plan: ordinary jobs plus one failing and
// one panicking one, so the failure paths are inside the byte-identity
// contract too.
func gateKeys() []sweep.JobKey {
	return []sweep.JobKey{
		testKey("BS", "fpc", 2),
		testKey("AES", "bdi", 1),
		testKey("FAIL", "", 1),
		testKey("PANIC", "", 1),
		testKey("MM", "adaptive", 4),
	}
}

// TestDeterminismGate is the acceptance test of the service's central
// contract: the same key set submitted to a fresh daemon, resubmitted to a
// warm one (cache hits, different tenant, shuffled and duplicated keys), and
// resumed from a crashed daemon's partial journal yields three byte-identical
// results files.
func TestDeterminismGate(t *testing.T) {
	keys := gateKeys()

	// Fresh daemon.
	dir1 := t.TempDir()
	s1 := newTestService(t, dir1, nil)
	st, err := s1.Submit(BatchRequest{Tenant: "alice", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, s1, st.ID)
	if fin.State != StateDone || fin.Jobs != 5 || fin.Completed != 5 || fin.Failed != 2 {
		t.Fatalf("fresh batch = %+v, want done, 5/5, 2 failed", fin)
	}
	fresh := resultsBytes(t, dir1, st.ID)

	// Warm resubmission: different tenant, reversed order, one duplicate key.
	shuffled := []sweep.JobKey{keys[4], keys[3], keys[2], keys[1], keys[0], keys[2]}
	before := s1.Engine().Stats()
	st2, err := s1.Submit(BatchRequest{Tenant: "bob", Keys: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitBatch(t, s1, st2.ID)
	if fin2.State != StateDone || fin2.Jobs != 5 {
		t.Fatalf("warm batch = %+v (the duplicate key must dedupe away)", fin2)
	}
	warm := resultsBytes(t, dir1, st2.ID)
	if !bytes.Equal(fresh, warm) {
		t.Fatalf("warm results differ from fresh:\nfresh:\n%s\nwarm:\n%s", fresh, warm)
	}
	after := s1.Engine().Stats()
	if after.Simulated != before.Simulated {
		t.Fatalf("warm resubmission resimulated %d jobs, want pure cache hits",
			after.Simulated-before.Simulated)
	}

	// Crash resume: a hand-crafted daemon directory holding the manifest and
	// a partial journal ending in a torn line — exactly what a SIGKILL
	// mid-batch leaves behind.
	dir2 := t.TempDir()
	store2, err := OpenStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	id := store2.NewBatchID()
	plan := sweep.Dedup(append([]sweep.JobKey(nil), keys...))
	sweep.SortCanonical(plan)
	if err := store2.WriteManifest(Manifest{ID: id, Tenant: "alice", Keys: plan}); err != nil {
		t.Fatal(err)
	}
	freshLines := bytes.SplitAfter(fresh, []byte("\n"))
	partial := append(append([]byte{}, freshLines[0]...), freshLines[1]...)
	partial = append(partial, []byte(`{"fingerprint":"deadbeefdeadbeef","seed":7,"ke`)...)
	if err := os.WriteFile(store2.journalPath(id), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	s3 := newTestService(t, dir2, nil)
	fin3 := waitBatch(t, s3, id)
	if fin3.State != StateDone || fin3.Completed != 5 {
		t.Fatalf("resumed batch = %+v", fin3)
	}
	resumed := resultsBytes(t, dir2, id)
	if !bytes.Equal(fresh, resumed) {
		t.Fatalf("post-crash results differ from fresh:\nfresh:\n%s\nresumed:\n%s", fresh, resumed)
	}
	// The two journaled jobs must have been replayed, not resimulated.
	var replayedOK int
	for _, line := range freshLines[:2] {
		var rec sweep.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Status == sweep.StatusOK {
			replayedOK++
		}
	}
	if p := s3.Engine().Stats(); p.Resumed != replayedOK {
		t.Fatalf("resumed engine replayed %d jobs, want %d (the journaled successes)", p.Resumed, replayedOK)
	}
}

// TestRestartRestoresSettledBatches proves a daemon restart over a directory
// with settled batches reloads them read-only: same statuses, same result
// bytes (results files are never rewritten), jobs servable by fingerprint.
func TestRestartRestoresSettledBatches(t *testing.T) {
	dir := t.TempDir()
	keys := gateKeys()

	s1 := newTestService(t, dir, nil)
	st, err := s1.Submit(BatchRequest{Tenant: "alice", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s1, st.ID)
	want := resultsBytes(t, dir, st.ID)
	s1.Close()

	s2 := newTestService(t, dir, nil)
	st2, ok := s2.Batch(st.ID)
	if !ok || st2.State != StateDone || st2.Completed != 5 || st2.Failed != 2 {
		t.Fatalf("restored batch = %+v, %v", st2, ok)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(want, got) {
		t.Fatal("restart rewrote the results file")
	}
	if p := s2.Engine().Stats(); p.Simulated != 0 {
		t.Fatalf("restart resimulated %d jobs", p.Simulated)
	}

	// Every settled job is immediately servable by fingerprint.
	raw, settled, _ := s2.Job(testKey("AES", "bdi", 1).Fingerprint())
	if !settled {
		t.Fatal("settled job unknown after restart")
	}
	var rec sweep.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != sweep.StatusOK || !strings.Contains(string(rec.Result), "AES/bdi") {
		t.Fatalf("restored job record = %+v", rec)
	}

	// A third submission of the same keys on the restarted daemon is pure
	// cache: byte-identical results, zero simulations.
	st3, err := s2.Submit(BatchRequest{Tenant: "carol", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s2, st3.ID)
	if got := resultsBytes(t, dir, st3.ID); !bytes.Equal(want, got) {
		t.Fatal("post-restart resubmission results differ")
	}
	if p := s2.Engine().Stats(); p.Simulated != 0 {
		t.Fatalf("post-restart resubmission simulated %d jobs", p.Simulated)
	}
}

// TestPanicIsolation: a panicking job fails that job with a deterministic
// error and harms nothing else — not the batch, not other jobs, not the
// daemon.
func TestPanicIsolation(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	st, err := s.Submit(BatchRequest{Keys: []sweep.JobKey{
		testKey("PANIC", "", 1),
		testKey("AES", "fpc", 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, s, st.ID)
	if fin.State != StateDone || fin.Completed != 2 || fin.Failed != 1 {
		t.Fatalf("batch with panicking job = %+v", fin)
	}

	raw, settled, _ := s.Job(testKey("PANIC", "", 1).Fingerprint())
	if !settled {
		t.Fatal("panicked job not settled")
	}
	var rec sweep.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != sweep.StatusFailed || rec.Error != "job panicked: deliberate test panic" {
		t.Fatalf("panicked record = %+v, want deterministic panic error", rec)
	}

	// The panic was absorbed at the job layer: the supervisor never saw it
	// and the pool is intact.
	if sup := s.Supervisor().Stats(); sup.Panics != 0 || sup.Alive != sup.Workers || sup.GaveUp {
		t.Fatalf("supervisor stats = %+v, want untouched pool", sup)
	}

	// The daemon still serves fresh work.
	st2, err := s.Submit(BatchRequest{Keys: []sweep.JobKey{testKey("BS", "bdi", 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitBatch(t, s, st2.ID); fin.State != StateDone || fin.Failed != 0 {
		t.Fatalf("batch after panic = %+v", fin)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	if _, err := s.Submit(BatchRequest{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, ok := s.Batch("b999999"); ok {
		t.Fatal("unknown batch reported as known")
	}
	if _, err := s.Results("b999999"); err == nil {
		t.Fatal("results of unknown batch did not error")
	}
	if _, settled, inFlight := s.Job("ffffffffffffffff"); settled || inFlight {
		t.Fatal("unknown job reported as known")
	}
}

// TestCrossBatchDedup: the memo cache is daemon-global — a key shared by two
// batches (even across tenants) simulates once.
func TestCrossBatchDedup(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	shared := testKey("AES", "fpc", 2)
	st1, err := s.Submit(BatchRequest{Tenant: "alice", Keys: []sweep.JobKey{shared, testKey("BS", "", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s, st1.ID)
	st2, err := s.Submit(BatchRequest{Tenant: "bob", Keys: []sweep.JobKey{shared, testKey("MM", "", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s, st2.ID)

	p := s.Engine().Stats()
	if p.Simulated != 3 {
		t.Fatalf("simulated %d jobs for 4 submissions of 3 distinct keys", p.Simulated)
	}
	if p.CacheHits == 0 {
		t.Fatal("shared key produced no cache hit")
	}
}

// TestServiceMetricsAndHealth: the observability surface reflects the work.
func TestServiceMetricsAndHealth(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	st, err := s.Submit(BatchRequest{Keys: gateKeys()})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s, st.ID)

	snap := s.MetricsSnapshot()
	wantCounters := map[string]float64{
		"serve/batches_submitted": 1,
		"serve/batches_done":      1,
		"serve/jobs_ok":           3,
		"serve/jobs_failed":       2,
		"serve/sup/panics":        0,
	}
	got := make(map[string]float64)
	for _, sm := range snap {
		got[sm.Path] = sm.Value
	}
	for path, want := range wantCounters {
		if got[path] != want {
			t.Fatalf("metric %s = %g, want %g (snapshot %+v)", path, got[path], want, snap)
		}
	}

	h := s.Health()
	if h.State != "ok" || h.Batches != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Progress.Completed != 5 {
		t.Fatalf("health progress = %+v", h.Progress)
	}
	if h.Supervisor.Alive != h.Supervisor.Workers {
		t.Fatalf("health supervisor = %+v", h.Supervisor)
	}
}
