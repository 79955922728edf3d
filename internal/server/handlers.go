package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// maxRequestBytes bounds a job request body. Explicit traces dominate the
// size; 64 MiB fits multi-million-access traces while keeping a hostile
// client from exhausting memory.
const maxRequestBytes = 64 << 20

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit a placement question (JobRequest)
//	GET    /jobs             list retained jobs
//	GET    /jobs/{id}        job status
//	GET    /jobs/{id}/result finished bounds (?format=tsv for the figure TSV)
//	GET    /jobs/{id}/stream job progress as NDJSON (per-column events)
//	DELETE /jobs/{id}        cancel a queued or running job
//	POST   /controller/stream replay a drift scenario through the online
//	                         controller, one JSON line per interval
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /controller/stream", s.handleControllerStream)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n")) //nolint:errcheck
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	solves, total := s.lpStats.Snapshot()
	s.metrics.write(w, s.gauges(), solves, total) //nolint:errcheck
	s.cfg.Coordinator.WriteMetrics(w)
}

// decodeJobRequest decodes a POST /jobs body. Unknown fields are rejected
// so a typoed option fails loudly instead of silently running the wrong
// question.
func decodeJobRequest(r io.Reader) (*JobRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	job, cached, err := s.Submit(req)
	switch {
	case errors.Is(err, errBadRequest):
		writeError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	view := job.View()
	view.Cached = cached
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fig := j.Result()
	if fig == nil {
		writeError(w, http.StatusConflict, "job is "+string(j.State())+", result available once done")
		return
	}
	if r.URL.Query().Get("format") == "tsv" {
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		fig.WriteTSV(w) //nolint:errcheck
		return
	}
	writeJSON(w, http.StatusOK, fig)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, accepted := s.Cancel(id)
	if st == "" {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !accepted {
		writeError(w, http.StatusConflict, "job already "+string(st))
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusAccepted, j.View())
}
