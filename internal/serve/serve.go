// Package serve promotes the internal/sweep orchestration engine to a
// resident, multi-tenant service: the subsystem behind the sweepd daemon.
//
// A client POSTs a batch of job keys; the service dedupes them through the
// engine's fingerprint-keyed memo cache (across batches and tenants —
// every distinct simulation runs at most once per daemon), executes them
// on a supervised worker pool, and persists three files per batch
// (manifest, streamed journal, final results) so a killed daemon resumes
// every in-flight batch at startup without resimulating completed jobs.
// Clients follow a batch by polling its status and download the results
// file once it settles. Every line of the journal and results files is a
// sweep.Record: the journal is appended through sweep.OpenJournal, and both
// replay through sweep.ReadJournal — the same path cmd/reproduce -resume
// uses.
//
// Determinism contract: the results journal of a batch is a pure function
// of its deduplicated, canonically ordered key set. Submitting the same
// batch to a fresh daemon, resubmitting it to a warm one (pure cache
// hits), or resuming it after a mid-batch SIGKILL all yield byte-identical
// results files. Failures are part of the contract: a job that fails — a
// deliberate panic included — is recorded as failed with a deterministic
// error string, and takes down neither the daemon nor any other job.
//
// The package is simulator-agnostic like the engine underneath it: the
// result type is a type parameter and the job executor an injected
// function. cmd/sweepd binds it to internal/runner.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sweep"
)

// Config parameterizes a Service.
type Config[R any] struct {
	// Run executes one job (required). It is wrapped in a panic guard: a
	// panicking run fails that job with a deterministic error instead of
	// crashing the daemon.
	Run func(sweep.JobKey) (R, error)
	// DataDir is the persistent state directory (required).
	DataDir string
	// Workers bounds concurrent job executions (default GOMAXPROCS via
	// the engine).
	Workers int
	// Supervisor tunes the worker restart policy.
	Supervisor SupervisorConfig
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Service is one resident sweep daemon: an engine, a store, a supervisor,
// and the batch registry. All methods are safe for concurrent use.
type Service[R any] struct {
	cfg   Config[R]
	store *Store
	eng   *sweep.Engine[R]
	sup   *Supervisor

	// reg is the service-level metrics registry (jobs, batches,
	// supervisor health). The registry type is single-threaded by design,
	// so every touch — registration, increments, snapshots — happens
	// under regMu.
	regMu       sync.Mutex
	reg         *metrics.Registry
	jobsOK      *metrics.Counter
	jobsFailed  *metrics.Counter
	batchesIn   *metrics.Counter
	batchesDone *metrics.Counter

	mu      sync.Mutex
	batches map[string]*batch
	order   []string                   // batch IDs in creation order
	jobs    map[string]json.RawMessage // fingerprint → marshaled sweep.Record
}

// New opens the data directory, resumes every stored batch, and starts
// the worker pool. Completed batches are reloaded as served results;
// incomplete ones are re-queued, with their journaled jobs replayed into
// the memo cache so only missing work re-runs.
func New[R any](cfg Config[R]) (*Service[R], error) {
	if cfg.Run == nil {
		return nil, fmt.Errorf("serve: Config.Run is required")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Service[R]{
		cfg:     cfg,
		store:   store,
		batches: make(map[string]*batch),
		jobs:    make(map[string]json.RawMessage),
	}
	//lint:ignore puretaint sweep.New stamps a wall-clock start for progress telemetry only; it never feeds result records
	s.eng = sweep.New(sweep.Config[R]{
		Workers: cfg.Workers,
		Run:     protect(cfg.Run),
	})
	if cfg.Supervisor.Workers <= 0 {
		cfg.Supervisor.Workers = cfg.Workers
	}
	s.sup = NewSupervisor(cfg.Supervisor)
	s.registerMetrics()
	if err := s.resume(); err != nil {
		return nil, err
	}
	s.sup.Start()
	return s, nil
}

// protect wraps the run function so a panicking job settles as a failed
// job. The error text is a pure function of the panic value: deterministic
// panics journal identically on every run.
func protect[R any](run func(sweep.JobKey) (R, error)) func(sweep.JobKey) (R, error) {
	return func(k sweep.JobKey) (res R, err error) {
		defer func() {
			if v := recover(); v != nil {
				var zero R
				res, err = zero, fmt.Errorf("%s", describePanic(v))
			}
		}()
		return run(k)
	}
}

// logf forwards to the configured logger.
func (s *Service[R]) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close stops the worker pool (in-flight jobs finish; queued ones are
// dropped and re-created from manifests at next startup) and closes every
// batch journal.
func (s *Service[R]) Close() {
	s.sup.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.batches {
		b.closeJournal()
	}
}

// Engine exposes the underlying sweep engine (tests, stats).
func (s *Service[R]) Engine() *sweep.Engine[R] { return s.eng }

// Supervisor exposes the worker supervisor (health, tests).
func (s *Service[R]) Supervisor() *Supervisor { return s.sup }
