package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/dist"
	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// JobState is the lifecycle state of a placement job.
type JobState string

// Job lifecycle states. queued -> running -> done|failed|canceled; a
// queued job may also move straight to canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// States lists every job state; the metrics endpoint exports one gauge
// per state so absent states read as explicit zeros.
func States() []JobState {
	return []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
}

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SpecRequest selects a paper preset (scenario.Preset) with optional field
// overrides; compile states it as that preset's scenario spec. Zero-valued
// fields keep the preset's value.
type SpecRequest struct {
	// Workload is "web" or "group".
	Workload string `json:"workload"`
	// Scale is "small", "medium" or "large".
	Scale string `json:"scale"`
	// Overrides (0 = keep the preset value). The scenario validator
	// rejects negatives, oversized systems and zipfS on group.
	Nodes         int       `json:"nodes,omitempty"`
	Objects       int       `json:"objects,omitempty"`
	Requests      int       `json:"requests,omitempty"`
	HorizonMillis int64     `json:"horizonMillis,omitempty"`
	DeltaMillis   int64     `json:"deltaMillis,omitempty"`
	Seed          uint64    `json:"seed,omitempty"`
	ZipfS         float64   `json:"zipfS,omitempty"`
	Tlat          float64   `json:"tlat,omitempty"`
	QoS           []float64 `json:"qos,omitempty"`
}

// JobRequest is the body of POST /jobs: a placement question. The system
// under analysis is stated as a preset spec, a scenario or an explicit
// topology + trace (the same JSON the cmd/workload tool emits); the class
// list defaults to the paper's Figure 1 set.
type JobRequest struct {
	// Spec selects a generated preset system. Mutually exclusive with
	// Scenario and Topology/Trace.
	Spec *SpecRequest `json:"spec,omitempty"`
	// Scenario states the system declaratively (the same schema the
	// -scenario command-line flags consume). It is compiled server-side,
	// so the job's QoS points, latency threshold, interval and default
	// class list all come from the scenario spec.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Topology and Trace state an explicit system.
	Topology *topology.Topology `json:"topology,omitempty"`
	Trace    *workload.Trace    `json:"trace,omitempty"`
	// DeltaMillis is the evaluation interval for an explicit system.
	DeltaMillis int64 `json:"deltaMillis,omitempty"`
	// Tlat is the latency threshold in ms for an explicit system
	// (default 150, the paper's threshold).
	Tlat float64 `json:"tlat,omitempty"`
	// QoS are the goal levels to sweep for an explicit system.
	QoS []float64 `json:"qos,omitempty"`
	// Classes are the heuristic classes to bound (see core.ClassNames);
	// empty means the Figure 1 default set.
	Classes []string `json:"classes,omitempty"`
	// SolveTimeoutMillis caps each LP solve's wall clock (0 = server
	// default).
	SolveTimeoutMillis int64 `json:"solveTimeoutMillis,omitempty"`

	// canonicalTrace holds Trace's canonical JSON (Trace.MarshalJSON) when
	// decodeJobRequest read exactly those bytes from the body, so compile
	// hashes them instead of encoding the trace again. They alias the
	// body, which no plan keeps.
	canonicalTrace []byte
}

// jobPlan is a validated, canonicalized request: the system statement,
// the class list and the per-solve cap, plus the content-address key. The
// key hashes the plan's JSON encoding, with an explicit trace's canonical
// JSON after it: field order is fixed and every member marshals
// deterministically, so two requests asking the same question hash
// identically regardless of their JSON spelling (field order, omitted
// defaults, whitespace).
type jobPlan struct {
	dist.Statement
	// Classes are the heuristic classes to bound; empty = Figure 1
	// default set.
	Classes      []string      `json:"classes,omitempty"`
	SolveTimeout time.Duration `json:"solveTimeout,omitempty"`

	key string
}

// errBadRequest wraps validation failures so handlers map them to 400.
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// compile validates a request and resolves it into a plan. Every
// rejection wraps errBadRequest; nothing here may panic on user input.
func compile(req *JobRequest) (*jobPlan, error) {
	if req == nil {
		return nil, badRequestf("empty request")
	}
	custom := req.Topology != nil || req.Trace != nil
	forms := 0
	for _, set := range []bool{req.Spec != nil, req.Scenario != nil, custom} {
		if set {
			forms++
		}
	}
	if forms > 1 {
		return nil, badRequestf("state exactly one of spec, scenario or topology+trace")
	}
	if forms == 0 {
		return nil, badRequestf("state a spec, a scenario or an explicit topology+trace")
	}
	p := &jobPlan{}
	classes := req.Classes
	switch {
	case req.Spec != nil:
		// A preset job keeps the empty class list, so it runs as Figure 1
		// and its TSV matches cmd/bounds -workload/-scale byte for byte.
		scn, err := req.Spec.scenario()
		if err != nil {
			return nil, err
		}
		p.Scenario = &scn
	case req.Scenario != nil:
		if err := req.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		scn := *req.Scenario
		p.Scenario = &scn
		// The scenario's own class list is the job's default, so its
		// result matches cmd/bounds -scenario on the same spec.
		if len(classes) == 0 {
			classes = scn.ClassNames()
		}
	default:
		if req.Topology == nil || req.Trace == nil {
			return nil, badRequestf("an explicit system needs both topology and trace")
		}
		if req.Topology.N != req.Trace.NumNodes {
			return nil, badRequestf("topology has %d nodes, trace has %d", req.Topology.N, req.Trace.NumNodes)
		}
		// Decoded bodies are valid by construction; a Go literal is not,
		// and building a malformed one would panic the job's worker.
		if err := req.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		if len(req.Topology.Latency) != req.Topology.N {
			return nil, badRequestf("topology has %d nodes but %d latency rows", req.Topology.N, len(req.Topology.Latency))
		}
		if _, err := topology.NewFromMatrix(req.Topology.Latency, req.Topology.Origin); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		if req.DeltaMillis <= 0 {
			return nil, badRequestf("deltaMillis must be positive for an explicit system")
		}
		tlat := req.Tlat
		if tlat == 0 {
			tlat = 150
		}
		if tlat < 0 {
			return nil, badRequestf("tlat %g must be positive", tlat)
		}
		if err := experiments.ValidateQoS(req.QoS); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		p.Topology = req.Topology
		p.Trace = req.Trace
		p.DeltaMillis = req.DeltaMillis
		p.Tlat = tlat
		p.QoS = append([]float64(nil), req.QoS...)
	}
	known := make(map[string]bool)
	for _, n := range core.ClassNames() {
		known[n] = true
	}
	seen := make(map[string]bool)
	for _, c := range classes {
		if !known[c] {
			return nil, badRequestf("unknown class %q; available: %v", c, core.ClassNames())
		}
		if seen[c] {
			return nil, badRequestf("duplicate class %q", c)
		}
		seen[c] = true
	}
	p.Classes = append([]string(nil), classes...)
	if req.SolveTimeoutMillis < 0 {
		return nil, badRequestf("solveTimeoutMillis must not be negative")
	}
	p.SolveTimeout = time.Duration(req.SolveTimeoutMillis) * time.Millisecond
	// An explicit trace joins the key as its canonical bytes, after the
	// rest of the plan: json.Marshal would re-validate and compact them.
	// The plan is a JSON object, which is self-delimiting, so the framing
	// is unambiguous; a plan without a trace hashes its JSON alone. Bytes
	// the body already held are hashed as they are and not kept.
	bare := *p
	bare.Trace = nil
	raw, err := json.Marshal(&bare)
	if err != nil {
		return nil, fmt.Errorf("hash request: %w", err)
	}
	h := sha256.New()
	h.Write(raw)
	if p.Trace != nil {
		trace := req.canonicalTrace
		if trace == nil {
			trace, _ = p.Trace.MarshalJSON() // the hand-written encoder cannot fail
		}
		h.Write(trace)
	}
	p.key = "sha256:" + hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// scenario states the request as its preset's scenario spec with the
// overrides applied, validated like any scenario body.
func (sp *SpecRequest) scenario() (scenario.Spec, error) {
	s, err := scenario.Preset(sp.Workload, sp.Scale)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	w := &s.Workload
	s.Topology.Nodes = cmp.Or(sp.Nodes, s.Topology.Nodes)
	w.Objects = cmp.Or(sp.Objects, w.Objects)
	w.Requests = cmp.Or(sp.Requests, w.Requests)
	w.HorizonMillis = cmp.Or(sp.HorizonMillis, w.HorizonMillis)
	w.ZipfS = cmp.Or(sp.ZipfS, w.ZipfS)
	s.DeltaMillis = cmp.Or(sp.DeltaMillis, s.DeltaMillis)
	s.Seed = cmp.Or(sp.Seed, s.Seed)
	s.TlatMillis = cmp.Or(sp.Tlat, s.TlatMillis)
	if len(sp.QoS) > 0 {
		s.QoS = append([]float64(nil), sp.QoS...)
	}
	if err := s.Validate(); err != nil {
		return scenario.Spec{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return s, nil
}

// run executes the sweep. An empty class list runs the Figure 1 set, so
// spec-form results are byte-identical to the cmd/bounds TSV.
func (p *jobPlan) run(sys *experiments.System, opts experiments.Options) (*experiments.Figure, error) {
	if len(p.Classes) == 0 {
		return experiments.Figure1(sys, opts, nil)
	}
	classes := make([]*core.Class, len(p.Classes))
	for i, name := range p.Classes {
		c, err := core.ClassByName(sys.Topo, sys.Spec.Tlat, name)
		if err != nil {
			return nil, err
		}
		classes[i] = c
	}
	return experiments.Sweep(sys, classes, "", opts, nil)
}

// Job is one placement question moving through the service.
type Job struct {
	id   string
	key  string
	plan *jobPlan

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      JobState
	created    time.Time
	started    time.Time
	finished   time.Time
	cellsDone  int
	cellsTotal int
	errMsg     string
	fig        *experiments.Figure
	subs       []chan JobEvent
}

// JobEvent is one NDJSON line of GET /jobs/{id}/stream: sweep progress,
// a completed column, or nothing further — terminal state travels in the
// stream's trailer, not as an event.
type JobEvent struct {
	Type  string `json:"type"` // "progress" or "column"
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// Column events: the class whose column finished, its cell count, and
	// whether it was served from the result store.
	Class     string `json:"class,omitempty"`
	Cells     int    `json:"cells,omitempty"`
	FromStore bool   `json:"fromStore,omitempty"`
}

// subscribe registers a live event channel; the returned cancel detaches
// it. The channel is closed when the job reaches a terminal state (or
// already is in one), which is the subscriber's signal to read the
// trailer from View.
func (j *Job) subscribe() (<-chan JobEvent, func()) {
	ch := make(chan JobEvent, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
}

// publish fans an event out to every subscriber without blocking: a
// subscriber that cannot keep up loses intermediate events (the trailer
// carries the authoritative final state, so nothing correctness-bearing
// is lost).
func (j *Job) publish(ev JobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubsLocked ends every subscription; callers hold j.mu and have
// just moved the job to a terminal state.
func (j *Job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// JobView is the JSON representation of a job's status.
type JobView struct {
	ID         string     `json:"id"`
	Key        string     `json:"key"`
	State      JobState   `json:"state"`
	CellsDone  int        `json:"cellsDone"`
	CellsTotal int        `json:"cellsTotal"`
	Created    time.Time  `json:"createdAt"`
	Started    *time.Time `json:"startedAt,omitempty"`
	Finished   *time.Time `json:"finishedAt,omitempty"`
	Error      string     `json:"error,omitempty"`
	// Cached marks a submit response served from the result cache.
	Cached bool `json:"cached,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, Key: j.key, State: j.state,
		CellsDone: j.cellsDone, CellsTotal: j.cellsTotal,
		Created: j.created, Error: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the finished figure, or nil while the job is not done.
func (j *Job) Result() *experiments.Figure {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.fig
}

// setRunning moves queued -> running; false means the job was canceled
// while queued and must not run.
func (j *Job) setRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// setProgress records sweep progress (serialized by the sweep engine)
// and fans it out to stream subscribers.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.cellsDone, j.cellsTotal = done, total
	ev := JobEvent{Type: "progress", Done: done, Total: total}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// finish records the outcome: done on success, canceled when the job's
// context was canceled, failed otherwise.
func (j *Job) finish(fig *experiments.Figure, err error, now time.Time) JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = now
	switch {
	case err == nil:
		j.state = StateDone
		j.fig = fig
	case j.ctx.Err() != nil:
		j.state = StateCanceled
		j.errMsg = "canceled"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.closeSubsLocked()
	return j.state
}

// requestCancel cancels the job. A queued job is finalized immediately; a
// running job's context is canceled and the worker finalizes it at the
// next simplex poll. Returns the resulting state and whether the request
// was accepted (false for already-terminal jobs).
func (j *Job) requestCancel(now time.Time) (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.finished = now
		j.cancel()
		j.closeSubsLocked()
		return j.state, true
	case StateRunning:
		j.cancel()
		return j.state, true
	default:
		return j.state, false
	}
}
