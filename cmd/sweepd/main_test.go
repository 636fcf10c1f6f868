package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/sweep"
)

// smokeKeys is the smoke batch: real (small) simulations, a few policies.
func smokeKeys() []sweep.JobKey {
	return []sweep.JobKey{
		{Workload: "AES", Policy: "none", Scale: 1},
		{Workload: "AES", Policy: "fpc", Scale: 1},
		{Workload: "BS", Policy: "bdi", Scale: 1},
		{Workload: "SC", Policy: "fpc", Scale: 1},
	}
}

// daemon is one running sweepd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches the built binary against dataDir on a kernel-chosen
// port and waits for its "listening on" line.
func startDaemon(t *testing.T, bin, dataDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-jobs", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			_ = d.cmd.Process.Kill()
			_, _ = d.cmd.Process.Wait()
		}
	})

	sc := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before announcing its address")
			}
			t.Logf("daemon: %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				d.addr = strings.Fields(rest)[0]
				// Keep draining stderr so the child never blocks on a full
				// pipe.
				go func() {
					for range lines {
					}
				}()
				return d
			}
		case <-deadline:
			t.Fatal("daemon never announced its address")
		}
	}
}

func (d *daemon) client() *serve.Client {
	return &serve.Client{BaseURL: "http://" + d.addr, PollInterval: 20 * time.Millisecond}
}

// sigkill terminates the daemon the hard way — no shutdown hooks, no
// journal close — exactly the crash the resume path exists for.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = d.cmd.Process.Wait()
}

// TestServeSmoke is the end-to-end gate (make serve-smoke): build the real
// binary, run a batch of real simulations through it, and prove
//
//  1. the daemon's results file is byte-identical to an in-process run of
//     the same batch, and
//  2. a SIGKILL mid-batch followed by a restart resumes to the exact same
//     bytes.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and drives the daemon binary")
	}

	bin := filepath.Join(t.TempDir(), "sweepd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sweepd: %v\n%s", err, out)
	}
	keys := smokeKeys()

	// The oracle: the same batch through an in-process service.
	oracleDir := t.TempDir()
	oracle, err := serve.New(serve.Config[*runner.Result]{
		Run: runner.RunJob, DataDir: oracleDir, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ost, err := oracle.Submit(serve.BatchRequest{Tenant: "oracle", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	waitDone := func(get func() (serve.BatchStatus, error)) serve.BatchStatus {
		t.Helper()
		deadline := time.Now().Add(2 * time.Minute)
		for {
			st, err := get()
			if err != nil {
				t.Fatal(err)
			}
			if st.State != serve.StateRunning {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch never settled: %+v", st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if st := waitDone(func() (serve.BatchStatus, error) { ob, _ := oracle.Batch(ost.ID); return ob, nil }); st.Failed != 0 {
		t.Fatalf("oracle batch = %+v", st)
	}
	want, err := os.ReadFile(filepath.Join(oracleDir, "batches", ost.ID, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	oracle.Close()

	// The daemon: submit, then SIGKILL as soon as at least one job settled
	// (on a fast box the batch may already be done — then the kill just
	// exercises settled-state restore, which must hold too).
	dataDir := t.TempDir()
	d1 := startDaemon(t, bin, dataDir)
	c1 := d1.client()
	st, err := c1.Submit(serve.BatchRequest{Tenant: "smoke", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		bs, err := c1.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job ever completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	d1.sigkill(t)

	// Restart over the same data directory: the daemon must resume the
	// batch and finish it to the oracle's exact bytes.
	d2 := startDaemon(t, bin, dataDir)
	c2 := d2.client()
	fin, err := c2.Wait(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != serve.StateDone || fin.Failed != 0 {
		t.Fatalf("resumed batch = %+v", fin)
	}
	rc, err := c2.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("post-crash daemon results differ from the in-process oracle:\noracle:\n%s\ndaemon:\n%s", want, got)
	}

	// Warm resubmission on the restarted daemon: byte-identical again, and
	// the job lookup serves a settled record.
	st2, err := c2.Submit(serve.BatchRequest{Tenant: "smoke2", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if fin2, err := c2.Wait(st2.ID, nil); err != nil || fin2.State != serve.StateDone {
		t.Fatalf("warm batch = %+v, %v", fin2, err)
	}
	rc2, err := c2.Results(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := io.ReadAll(rc2)
	rc2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got2) {
		t.Fatal("warm resubmission results differ from the oracle")
	}
	rec, err := c2.Job(keys[0].Fingerprint())
	if err != nil || rec.Status != sweep.StatusOK {
		t.Fatalf("job lookup = %+v, %v", rec, err)
	}
}
