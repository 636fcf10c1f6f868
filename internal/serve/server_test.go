package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mgpucompress/internal/sweep"
)

// TestHTTPEndToEnd drives the whole wire surface through the Client.
func TestHTTPEndToEnd(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, t.TempDir(), func(c *Config[testResult]) {
		inner := c.Run
		c.Run = func(k sweep.JobKey) (testResult, error) {
			if k.Workload == "SLOW" {
				<-gate
			}
			return inner(k)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, PollInterval: 2 * time.Millisecond}

	// While a batch is running, its results are 409.
	running, err := c.Submit(BatchRequest{Tenant: "alice", Keys: []sweep.JobKey{testKey("SLOW", "", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if running.State != StateRunning {
		t.Fatalf("initial state = %+v", running)
	}
	if _, err := c.Results(running.ID); err == nil || !strings.Contains(err.Error(), "running") {
		t.Fatalf("results of running batch = %v, want conflict", err)
	}
	close(gate)
	if fin, err := c.Wait(running.ID, nil); err != nil || fin.State != StateDone {
		t.Fatalf("Wait = %+v, %v", fin, err)
	}

	// Full batch round trip, progress callback included.
	var polls int
	st, err := c.Submit(BatchRequest{Tenant: "bob", Keys: gateKeys()})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(st.ID, func(BatchStatus) { polls++ })
	if err != nil || fin.State != StateDone || fin.Failed != 2 {
		t.Fatalf("Wait = %+v, %v", fin, err)
	}
	if polls == 0 {
		t.Fatal("progress callback never ran")
	}

	// Downloaded results match the artifact on disk byte for byte.
	rc, err := c.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	downloaded := new(bytes.Buffer)
	if _, err := downloaded.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	want := resultsBytes(t, s.cfg.DataDir, st.ID)
	if !bytes.Equal(downloaded.Bytes(), want) {
		t.Fatal("downloaded results differ from the on-disk artifact")
	}

	// Job lookup by fingerprint.
	rec, err := c.Job(testKey("AES", "bdi", 1).Fingerprint())
	if err != nil || rec.Status != sweep.StatusOK {
		t.Fatalf("Job = %+v, %v", rec, err)
	}
	if _, err := c.Job("ffffffffffffffff"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job = %v, want 404", err)
	}

	// RunJob: success returns the payload, failure the deterministic error.
	raw, err := c.RunJob(testKey("XY", "fpc", 2))
	if err != nil || !strings.Contains(string(raw), "XY/fpc") {
		t.Fatalf("RunJob = %s, %v", raw, err)
	}
	if _, err := c.RunJob(testKey("PANIC", "", 1)); err == nil || !strings.Contains(err.Error(), "job panicked") {
		t.Fatalf("RunJob(PANIC) = %v, want the deterministic panic error", err)
	}

	// Health and error surfaces.
	h, err := c.Health()
	if err != nil || h.State != "ok" {
		t.Fatalf("Health = %+v, %v", h, err)
	}
	if _, err := c.Status("b999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown batch = %v, want 404", err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submit = %d, want 400", resp.StatusCode)
	}
}
