package serve

import (
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sweep"
)

// This file is the wire surface of the sweep service: every type that
// crosses the HTTP boundary, with field order fixed so marshaled artifacts
// are byte-stable. Job records — journal and results lines, and the
// GET /v1/jobs/{fingerprint} body — are sweep.Record.

// BatchRequest is the POST /v1/batches body: a set of job keys to run (or
// serve from the memo cache) as one named unit. Tenant is an accounting
// label; deduplication is global, so two tenants submitting the same key
// share one simulation.
type BatchRequest struct {
	Tenant string         `json:"tenant,omitempty"`
	Keys   []sweep.JobKey `json:"keys"`
}

// Batch states as reported by BatchStatus.State.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateError   = "error"
)

// BatchStatus is the GET /v1/batches/{id} response (and the body of the
// 202 returned by a submission).
type BatchStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	// Jobs is the size of the batch's deduplicated, canonically ordered
	// plan; Completed counts settled jobs, Failed the subset that errored.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Error carries the terminal fault of a batch in StateError (e.g. the
	// results file could not be written).
	Error string `json:"error,omitempty"`
}

// Manifest is the on-disk description of a submitted batch, written before
// any of its jobs run: after a crash it is the authoritative plan the
// daemon resumes. Keys are stored deduplicated in canonical order — the
// order of the results journal.
type Manifest struct {
	ID     string         `json:"id"`
	Tenant string         `json:"tenant,omitempty"`
	Keys   []sweep.JobKey `json:"keys"`
}

// Health is the GET /v1/healthz response.
type Health struct {
	State      string           `json:"state"` // "ok" or "degraded" (supervisor gave up)
	Batches    int              `json:"batches"`
	Supervisor SupervisorStats  `json:"supervisor"`
	Progress   sweep.Progress   `json:"progress"`
	Metrics    metrics.Snapshot `json:"metrics,omitempty"`
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}
