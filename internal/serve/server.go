package serve

import (
	"encoding/json"
	"io"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/batches                 submit a batch            → 202 BatchStatus
//	GET  /v1/batches/{id}            batch status              → 200 BatchStatus
//	GET  /v1/batches/{id}/results    results journal (JSONL)   → 200 once done
//	GET  /v1/jobs/{fingerprint}      one settled job's record  → 200 sweep.Record
//	GET  /v1/healthz                 daemon health
func (s *Service[R]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("GET /v1/batches/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{fingerprint}", s.handleJob)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

// maxRequestBytes bounds a submission body; a full reproduction plan
// marshals well under a megabyte.
const maxRequestBytes = 32 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n')) // a client disconnect is not actionable
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

func (s *Service[R]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding batch request: "+err.Error())
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service[R]) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Batch(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown batch "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service[R]) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Batch(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown batch "+id)
		return
	}
	if st.State == StateRunning {
		writeErr(w, http.StatusConflict, "batch "+id+" is still running")
		return
	}
	rc, err := s.Results(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = io.Copy(w, rc) // a mid-stream disconnect is the client's problem
}

func (s *Service[R]) handleJob(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	raw, settled, inFlight := s.Job(fp)
	switch {
	case settled:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(raw, '\n')) // a client disconnect is not actionable
	case inFlight:
		writeErr(w, http.StatusAccepted, "job "+fp+" is in flight")
	default:
		writeErr(w, http.StatusNotFound, "unknown job "+fp)
	}
}

func (s *Service[R]) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}
