// Package server implements placementd's serving layer: an HTTP JSON
// service where clients POST placement questions (topology + workload +
// heuristic classes + QoS goals) and poll for the per-class lower bounds.
// Jobs flow through a bounded queue into a worker pool that runs the
// experiments sweep engine with per-job cancellation, solving each class
// column through a dist coordinator; identical questions are deduplicated
// through a content-addressed result cache; a hand-rolled Prometheus
// endpoint exposes queue, cache, dispatch and solver-effort metrics.
// Built on net/http alone.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wideplace/internal/dist"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
)

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
	// Coordinator solves every job's class columns. Nil is standalone
	// mode: a coordinator whose one worker runs in process with this
	// config's SolveTimeout, CheckEvery and Presolve.
	Coordinator *dist.Coordinator
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
	if c.Coordinator == nil {
		c.Coordinator = dist.NewLocalCoordinator(dist.NewWorker(dist.WorkerConfig{
			SolveTimeout: c.SolveTimeout,
			CheckEvery:   c.CheckEvery,
			Presolve:     c.Presolve,
		}))
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
	return s.enqueue(plan)
}

// enqueue queues a compiled plan, or attaches to the live job that
// already answers it.
func (s *Server) enqueue(plan *jobPlan) (*Job, bool, error) {
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

// runJob executes one job's sweep, solving each class column through the
// coordinator, and records the outcome.
func (s *Server) runJob(j *Job) {
	if !j.setRunning(time.Now()) {
		return // canceled while queued; Cancel already accounted for it
	}
	var (
		fig *experiments.Figure
		// Only freshly solved columns count as this process's solver
		// effort: store-served columns keep their original Stats for the
		// TSV footer (byte-identity), but a restarted coordinator that
		// answers a whole job from the store must add nothing to the
		// lp_* counters.
		fresh lp.StatsCollector
	)
	err := func() (err error) {
		defer recoverJob(&err)
		sys, err := j.plan.Build()
		if err != nil {
			return err
		}
		shard, err := dist.NewShard(j.plan.Statement, sys, cmp.Or(j.plan.SolveTimeout, s.cfg.SolveTimeout))
		if err != nil {
			return err
		}
		opts := experiments.Options{
			Parallel: s.cfg.Parallel,
			Ctx:      j.ctx,
			OnCell:   j.setProgress,
			// Columns solve on the sweep's goroutines, out of reach of
			// the recover above, so each recovers its own panic.
			ColumnSolver: func(ctx context.Context, class string, _ []float64) (pts []experiments.Point, err error) {
				defer recoverJob(&err)
				col := shard
				col.Class = class
				pts, fromStore, err := s.cfg.Coordinator.SolveColumn(ctx, col)
				if err != nil {
					return nil, err
				}
				if !fromStore {
					var agg lp.Stats
					for _, p := range pts {
						agg.Add(p.Stats)
					}
					fresh.Record(agg)
				}
				j.publish(JobEvent{Type: "column", Class: class, Cells: len(pts), FromStore: fromStore})
				return pts, nil
			},
		}
		fig, err = j.plan.run(sys, opts)
		return err
	}()
	state := j.finish(fig, err, time.Now())
	switch state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
		if cols, agg := fresh.Snapshot(); cols > 0 {
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

// recoverJob, deferred on a goroutine that works for a job, turns a panic
// into the job's error, so one bad job fails alone instead of exiting
// placementd with every other queued and running job.
func recoverJob(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
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
