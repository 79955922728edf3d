// Package server implements placementd's serving layer: an HTTP JSON
// service where clients POST placement questions (topology + workload +
// heuristic classes + QoS goals) and poll for the per-class lower bounds.
// Jobs flow through a bounded queue into a worker pool that runs the
// experiments sweep engine with per-job cancellation; identical questions
// are deduplicated through a content-addressed result cache; a hand-rolled
// Prometheus endpoint exposes queue, cache and solver-effort metrics.
// Built on net/http alone.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"wideplace/internal/dist"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

// Dispatcher solves one column shard outside this process — the
// coordinator role of the distributed subsystem (internal/dist). When
// configured, job sweeps delegate each class column to it instead of
// solving locally; the bool reports a column served from the persistent
// result store, which keeps the server's fresh-solver-effort metrics
// honest across restarts. A nil Dispatcher is standalone mode, today's
// single-process behavior, byte-identical.
type Dispatcher interface {
	SolveColumn(ctx context.Context, shard dist.ShardJob) (points []experiments.Point, fromStore bool, err error)
}

// MetricsWriter is implemented by dispatchers that carry their own
// counters (the dist coordinator); /metrics appends their exposition
// after the server's own.
type MetricsWriter interface {
	WriteMetrics(w io.Writer)
}

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// QueueDepth bounds the number of waiting jobs (default 64);
	// submissions beyond it are rejected with 503 instead of queuing
	// without bound.
	QueueDepth int
	// Parallel is the per-job sweep fan-out (0 = GOMAXPROCS). With
	// several workers, 1 trades per-job latency for cross-job
	// throughput.
	Parallel int
	// SolveTimeout is the default wall-clock cap per LP solve
	// (0 = unlimited); a request may set its own tighter cap.
	SolveTimeout time.Duration
	// CheckEvery is the simplex cancellation poll interval in
	// iterations (0 = solver default). Cancellation latency of a
	// running job is one poll interval.
	CheckEvery int
	// Presolve selects the LP presolve mode for job sweeps (default
	// PresolveAuto = on). Bounds are identical either way; only solver
	// effort differs.
	Presolve lp.PresolveMode
	// MaxJobs bounds retained finished jobs (default 1024); the oldest
	// finished jobs (and their cached results) are evicted beyond it.
	MaxJobs int
	// Dispatcher, when non-nil, solves every job's class columns remotely
	// (coordinator mode); see the Dispatcher interface.
	Dispatcher Dispatcher
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Submission errors surfaced to handlers.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("server: job queue is full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Server runs the job queue, worker pool, result cache and metrics.
type Server struct {
	cfg     Config
	metrics *metrics
	lpStats lp.StatsCollector

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	order    []string
	cache    *resultCache
}

// New starts a server's worker pool. Callers must Drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		cache:   newResultCache(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a placement question. A request whose
// content hash matches a live job (queued, running or done) attaches to
// that job and reports cached=true — two identical concurrent
// submissions cost one solve.
func (s *Server) Submit(req *JobRequest) (*Job, bool, error) {
	plan, err := compile(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if j, ok := s.cache.lookup(plan.key); ok {
		s.metrics.submitted.Add(1)
		s.metrics.cacheHits.Add(1)
		return j, true, nil
	}
	s.seq++
	j := &Job{
		id:      fmt.Sprintf("j%d", s.seq),
		key:     plan.key,
		plan:    plan,
		state:   StateQueued,
		created: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	select {
	case s.queue <- j:
	default:
		s.seq--
		j.cancel()
		return nil, false, ErrQueueFull
	}
	s.metrics.submitted.Add(1)
	s.metrics.cacheMisses.Add(1)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.cache.put(plan.key, j)
	s.evictLocked()
	return j, false, nil
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
func (s *Server) evictLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.State().terminal() {
			delete(s.jobs, id)
			s.cache.drop(j.key, j)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists retained jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is finalized
// immediately; a running job aborts at the solver's next cancellation
// poll (Config.CheckEvery iterations). The bool reports whether the
// request was accepted (false for unknown or already-finished jobs).
func (s *Server) Cancel(id string) (JobState, bool) {
	j, ok := s.Job(id)
	if !ok {
		return "", false
	}
	st, accepted := j.requestCancel(time.Now())
	if accepted && st == StateCanceled {
		// Canceled while queued: count it and release the cache slot
		// here, since no worker will finalize it.
		s.metrics.jobsCanceled.Add(1)
		s.mu.Lock()
		s.cache.drop(j.key, j)
		s.mu.Unlock()
	}
	return st, accepted
}

// worker drains the queue until it is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job's sweep and records the outcome.
func (s *Server) runJob(j *Job) {
	if !j.setRunning(time.Now()) {
		return // canceled while queued; Cancel already accounted for it
	}
	var (
		fig *experiments.Figure
		// Dispatcher mode tracks the effort of freshly solved columns
		// only: store-served columns keep their original Stats for the
		// TSV footer (byte-identity), but a restarted coordinator that
		// answers a whole job from the store must add nothing to this
		// process's lp_* counters.
		freshMu    sync.Mutex
		freshStats lp.Stats
		freshCols  int
	)
	sys, err := j.plan.buildSystem()
	if err == nil {
		opts := experiments.Options{
			Parallel:     s.cfg.Parallel,
			SolveTimeout: s.cfg.SolveTimeout,
			Ctx:          j.ctx,
			OnCell:       j.setProgress,
		}
		if j.plan.solveTimeout > 0 {
			opts.SolveTimeout = j.plan.solveTimeout
		}
		opts.Bound.LP.CheckEvery = s.cfg.CheckEvery
		opts.Bound.LP.Presolve = s.cfg.Presolve
		if s.cfg.Dispatcher != nil {
			var fp string
			fp, err = scenario.Fingerprint(sys)
			if err == nil {
				timeout := opts.SolveTimeout
				opts.ColumnSolver = func(ctx context.Context, class string, qos []float64) ([]experiments.Point, error) {
					pts, fromStore, cerr := s.cfg.Dispatcher.SolveColumn(ctx, j.plan.shard(class, fp, timeout))
					if cerr != nil {
						return nil, cerr
					}
					if !fromStore {
						var agg lp.Stats
						for _, p := range pts {
							agg.Add(p.Stats)
						}
						freshMu.Lock()
						freshStats.Add(agg)
						freshCols++
						freshMu.Unlock()
					}
					j.publish(JobEvent{Type: "column", Class: class, Cells: len(pts), FromStore: fromStore})
					return pts, nil
				}
			}
		}
		if err == nil {
			fig, err = j.plan.run(sys, opts)
		}
	}
	state := j.finish(fig, err, time.Now())
	switch state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
		if s.cfg.Dispatcher != nil {
			if freshCols > 0 {
				s.lpStats.Record(freshStats)
			}
		} else {
			_, agg := fig.SolverStats()
			s.lpStats.Record(agg)
		}
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	}
	if state != StateDone {
		s.mu.Lock()
		s.cache.drop(j.key, j)
		s.mu.Unlock()
	}
	j.mu.Lock()
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()
	s.metrics.duration.observe(elapsed.Seconds())
}

// Drain gracefully shuts the server down: new submissions are rejected,
// queued and running jobs finish normally. If ctx expires first, every
// remaining job is canceled (in-flight solves abort at the next simplex
// poll) and Drain returns the context's error once the workers exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// gauges samples the scrape-time server state.
func (s *Server) gauges() gaugeSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := gaugeSet{
		queueDepth:  len(s.queue),
		jobsByState: make(map[JobState]int, len(States())),
		cacheSize:   s.cache.len(),
	}
	for _, j := range s.jobs {
		g.jobsByState[j.State()]++
	}
	return g
}
