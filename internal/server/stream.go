package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"wideplace/internal/controller"
	"wideplace/internal/core"
	"wideplace/internal/scenario"
)

// StreamRequest is the body of POST /controller/stream: a drift scenario
// replayed through the online placement controller, with one JSON line
// emitted per control interval as it is solved.
type StreamRequest struct {
	// Scenario is the declarative system + workload spec (the same form
	// job submissions accept).
	Scenario *scenario.Spec `json:"scenario"`
	// TQoS is the per-user QoS goal fraction (default 0.95).
	TQoS float64 `json:"tqos,omitempty"`
	// Reactive plans each interval from the previous interval's demand;
	// the default is clairvoyant lookahead.
	Reactive bool `json:"reactive,omitempty"`
	// Intervals caps the replay to the first N intervals (0 = all).
	Intervals int `json:"intervals,omitempty"`
	// DeltaMillis overrides the scenario's interval with this control
	// period (0 = the scenario's own).
	DeltaMillis int64 `json:"deltaMillis,omitempty"`
}

// streamHeader is the first line of a controller stream.
type streamHeader struct {
	Scenario  string  `json:"scenario"`
	Nodes     int     `json:"nodes"`
	Objects   int     `json:"objects"`
	Intervals int     `json:"intervals"`
	DeltaMs   int64   `json:"deltaMillis"`
	TQoS      float64 `json:"tqos"`
	Lookahead bool    `json:"lookahead"`
}

// streamTrailer is the last line of a completed controller stream.
type streamTrailer struct {
	Done            bool  `json:"done"`
	Intervals       int   `json:"intervals"`
	TotalIterations int   `json:"totalIterations"`
	TotalAdds       int   `json:"totalAdds"`
	TotalDrops      int   `json:"totalDrops"`
	WallNs          int64 `json:"wallNs"`
}

// decodeStreamRequest decodes a POST /controller/stream body and makes
// every check that needs no compile: a scenario is stated, tqos (0.95
// when unset) lies in (0, 1), the replay bounds are not negative, and the
// scenario validates, size caps included, at the request's deltaMillis
// override. It returns the request with its default filled in and the
// spec to compile. Unknown fields are rejected, as for POST /jobs.
func decodeStreamRequest(r io.Reader) (*StreamRequest, scenario.Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req StreamRequest
	if err := dec.Decode(&req); err != nil {
		return nil, scenario.Spec{}, fmt.Errorf("decode request: %w", err)
	}
	if req.Scenario == nil {
		return nil, scenario.Spec{}, errors.New("a controller stream needs a scenario")
	}
	if req.TQoS == 0 {
		req.TQoS = 0.95
	}
	if req.TQoS <= 0 || req.TQoS >= 1 {
		return nil, scenario.Spec{}, fmt.Errorf("tqos %g outside (0, 1)", req.TQoS)
	}
	if req.Intervals < 0 || req.DeltaMillis < 0 {
		return nil, scenario.Spec{}, errors.New("intervals and deltaMillis must not be negative")
	}
	spec := *req.Scenario
	if req.DeltaMillis > 0 {
		spec.DeltaMillis = req.DeltaMillis
	}
	if err := spec.Validate(); err != nil {
		return nil, scenario.Spec{}, err
	}
	return &req, spec, nil
}

// handleControllerStream runs the online control loop over a drift
// scenario and streams each interval's StepResult as one JSON line
// (application/x-ndjson), flushed as soon as it is solved — a dashboard
// watching the stream sees placement diffs appear interval by interval
// instead of polling a job until the whole replay is done. The stream is
// a header line, one StepResult per interval, and a trailer with totals;
// closing the connection cancels the in-flight solve at its next
// iteration poll.
func (s *Server) handleControllerStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	req, spec, err := decodeStreamRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := scenario.Compile(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sys := res.System
	counts := sys.Counts.Truncate(req.Intervals)

	cfg := controller.Config{
		Topo:    sys.Topo,
		Objects: counts.Objects,
		Delta:   counts.Delta,
		Cost:    core.DefaultCost(),
		Goal:    core.QoS(req.TQoS, sys.Spec.Tlat),
	}
	cfg.LP.Ctx = r.Context()
	cfg.LP.CheckEvery = s.cfg.CheckEvery
	cfg.LP.Timeout = s.cfg.SolveTimeout
	cfg.LP.Presolve = s.cfg.Presolve
	ctl, err := controller.New(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	emit := ndjson(w)
	if emit(streamHeader{
		Scenario: req.Scenario.Name, Nodes: sys.Topo.N, Objects: counts.Objects,
		Intervals: counts.Intervals, DeltaMs: counts.Delta.Milliseconds(),
		TQoS: req.TQoS, Lookahead: !req.Reactive,
	}) != nil {
		return
	}

	trailer := streamTrailer{}
	err = ctl.Run(counts, !req.Reactive, func(st *controller.StepResult) error {
		s.lpStats.Record(st.Stats)
		trailer.Intervals++
		trailer.TotalIterations += st.Iterations
		trailer.TotalAdds += st.Adds
		trailer.TotalDrops += st.Drops
		trailer.WallNs += st.WallNs
		if err := emit(st); err != nil {
			return err
		}
		return r.Context().Err() // the client went away: stop solving
	})
	if err != nil {
		emit(errorBody{Error: err.Error()}) //nolint:errcheck // the stream ends here either way
		return
	}
	trailer.Done = true
	emit(trailer) //nolint:errcheck // the stream ends here either way
}

// ndjson commits an application/x-ndjson response and returns its line
// writer, which flushes each line as soon as it is written.
func ndjson(w http.ResponseWriter) func(v interface{}) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v interface{}) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
}

// jobStreamLine wraps a job view for the header and trailer lines of a
// job stream, distinguishable from events by its type tag.
type jobStreamLine struct {
	Type string  `json:"type"` // "job"
	Job  JobView `json:"job"`
}

// handleJobStream streams a job's progress as NDJSON: a header line with
// the job's current view, one line per progress/column event as it
// happens, and a trailer with the terminal view once the job finishes. A
// job already finished streams header + trailer immediately, so clients
// need no state machine around the race between subscribing and
// finishing. Closing the connection just detaches the subscriber; the
// job keeps running (cancellation stays DELETE's).
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	events, unsubscribe := j.subscribe()
	defer unsubscribe()

	emit := ndjson(w)
	if emit(jobStreamLine{Type: "job", Job: j.View()}) != nil {
		return
	}
	for {
		select {
		case ev, open := <-events:
			if !open {
				emit(jobStreamLine{Type: "job", Job: j.View()}) //nolint:errcheck // the stream ends here either way
				return
			}
			if emit(ev) != nil {
				return
			}
		case <-r.Context().Done():
			return // client went away; the job keeps running
		}
	}
}
