package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mgpucompress/internal/sweep"
)

// loadPlan builds n distinct job keys spanning workloads, policies and
// scales, salted with a few deterministic failures so the failure paths are
// inside the load contract too.
func loadPlan(n int) []sweep.JobKey {
	workloads := []string{"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}
	policies := []string{"none", "fpc", "bdi", "cpackz", "adaptive"}
	keys := make([]sweep.JobKey, 0, n)
	for i := 0; len(keys) < n; i++ {
		w := workloads[i%len(workloads)]
		if i%29 == 13 {
			w = "FAIL"
		}
		if i%41 == 27 {
			w = "PANIC"
		}
		k := testKey(w, policies[i%len(policies)], 1+i/len(workloads))
		k.CUsPerGPU = 1 + i%3 // keeps salted FAIL/PANIC keys distinct
		keys = append(keys, k)
	}
	return keys
}

// directResults runs the plan through a bare internal/sweep engine and
// renders the records the way a settled batch's results file holds them.
func directResults(t *testing.T, plan []sweep.JobKey) []byte {
	t.Helper()
	eng := sweep.New(sweep.Config[testResult]{Run: protect(testRun), Workers: 4})
	var direct bytes.Buffer
	for _, k := range plan {
		rec := sweep.Record{Fingerprint: k.Fingerprint(), Seed: k.Seed(), Key: k}
		res, runErr := eng.Get(k)
		if runErr != nil {
			rec.Status, rec.Error = sweep.StatusFailed, runErr.Error()
		} else {
			payload, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			rec.Status, rec.Result = sweep.StatusOK, payload
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		direct.Write(append(line, '\n'))
	}
	return direct.Bytes()
}

// TestServeLoad is the Savina-style fan-out/fan-in gate for the sweepd API:
// one large batch fans out across the supervised worker pool while many
// concurrent clients fan in on it. Each client resubmits the whole plan as
// its own batch — shuffled, with a duplicate key — and then polls both the
// shared batch and its own to completion, so every distinct job is
// requested by many batches at once and the daemon-global memo cache must
// run it exactly once. Every downloaded results file must be byte-identical
// to its on-disk artifact and to a direct internal/sweep run of the plan.
//
// Scale comes from SERVE_LOAD_JOBS / SERVE_LOAD_CONSUMERS (the serve-load
// make target raises both); -short shrinks it to a smoke that still
// exercises every code path.
func TestServeLoad(t *testing.T) {
	jobs, consumers := 300, 32
	if testing.Short() {
		jobs, consumers = 60, 8
	}
	if v, err := strconv.Atoi(os.Getenv("SERVE_LOAD_JOBS")); err == nil && v > 0 {
		jobs = v
	}
	if v, err := strconv.Atoi(os.Getenv("SERVE_LOAD_CONSUMERS")); err == nil && v > 0 {
		consumers = v
	}

	s := newTestService(t, t.TempDir(), func(c *Config[testResult]) {
		inner := c.Run
		c.Run = func(k sweep.JobKey) (testResult, error) {
			time.Sleep(time.Millisecond) // spread completions so clients poll live batches
			return inner(k)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keys := loadPlan(jobs)
	st, err := s.Submit(BatchRequest{Tenant: "load", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	plan := sweep.Dedup(append([]sweep.JobKey(nil), keys...))
	sweep.SortCanonical(plan)

	// Fan-out: every client resubmits the plan and polls concurrently with
	// the shared batch's execution.
	ids := make([]string, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL, PollInterval: time.Millisecond}
			mine := append([]sweep.JobKey(nil), keys...)
			rng := rand.New(rand.NewSource(int64(i + 1)))
			rng.Shuffle(len(mine), func(a, b int) { mine[a], mine[b] = mine[b], mine[a] })
			mine = append(mine, mine[0])
			own, err := c.Submit(BatchRequest{Tenant: "client-" + strconv.Itoa(i), Keys: mine})
			if err != nil {
				t.Errorf("client %d: submit: %v", i, err)
				return
			}
			ids[i] = own.ID
			for _, id := range []string{st.ID, own.ID} {
				fin, err := c.Wait(id, nil)
				if err != nil {
					t.Errorf("client %d: wait %s: %v", i, id, err)
					return
				}
				if fin.State != StateDone || fin.Jobs != len(plan) || fin.Completed != len(plan) {
					t.Errorf("client %d: batch %s settled as %+v, want done with %d jobs", i, id, fin, len(plan))
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Fan-in: every batch's downloaded results are its on-disk artifact,
	// byte for byte, and that artifact is a direct internal/sweep run of the
	// same plan — the daemon added scheduling, polling and storage, but
	// changed no result.
	want := directResults(t, plan)
	c := &Client{BaseURL: ts.URL}
	for _, id := range append([]string{st.ID}, ids...) {
		rc, err := c.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		downloaded := new(bytes.Buffer)
		if _, err := downloaded.ReadFrom(rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		if !bytes.Equal(downloaded.Bytes(), resultsBytes(t, s.cfg.DataDir, id)) {
			t.Fatalf("batch %s: downloaded results differ from the on-disk artifact", id)
		}
		if !bytes.Equal(downloaded.Bytes(), want) {
			t.Fatalf("batch %s: daemon results differ from a direct sweep run:\ndaemon:\n%s\ndirect:\n%s",
				id, downloaded.Bytes(), want)
		}
	}

	// Cross-batch dedup: 1+consumers batches of the same plan ran each
	// distinct job exactly once.
	if p := s.Engine().Stats(); p.Simulated+p.Failed != len(plan) {
		t.Fatalf("engine ran %d jobs (%d ok, %d failed) for %d distinct keys across %d batches",
			p.Simulated+p.Failed, p.Simulated, p.Failed, len(plan), consumers+1)
	}
}
