package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/lp"
)

// maxShardBytes bounds a shard request body; explicit traces dominate the
// size, and the cap matches the job API's request bound.
const maxShardBytes = 64 << 20

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Concurrency bounds simultaneously solving shards (default 1: one
	// warm chain saturates one core, and the coordinator spreads columns
	// across workers anyway). Excess requests wait their turn.
	Concurrency int
	// SolveTimeout is the default wall-clock cap per LP solve
	// (0 = unlimited); a shard may carry its own tighter cap.
	SolveTimeout time.Duration
	// CheckEvery is the simplex cancellation poll interval in iterations
	// (0 = solver default).
	CheckEvery int
	// Presolve selects the LP presolve mode, identical in meaning to the
	// standalone server's field. Bounds are invariant to it; keep it at
	// the default fleet-wide so effort counters aggregate consistently.
	Presolve lp.PresolveMode
}

// Worker solves column shards on demand: over HTTP for a remote
// coordinator, or in process as a standalone coordinator's one worker. It
// is the dumb half of the subsystem: no queue, no store, no registry — it
// solves what it is sent and reports its own effort on /metrics.
type Worker struct {
	cfg     WorkerConfig
	sem     chan struct{}
	lpStats lp.StatsCollector
	served  atomic.Uint64
	failed  atomic.Uint64
}

// NewWorker returns a worker ready to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	return &Worker{cfg: cfg, sem: make(chan struct{}, cfg.Concurrency)}
}

// Handler returns the worker's HTTP API:
//
//	POST /solve    solve one column shard (ShardJob -> ColumnResult)
//	GET  /healthz  liveness probe
//	GET  /metrics  Prometheus text exposition (worker-side effort)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", w.handleSolve)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rw.Write([]byte("ok\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /metrics", w.handleMetrics)
	return mux
}

// decodeShard decodes a POST /solve body. Unknown fields are rejected so a
// coordinator/worker wire drift fails loudly instead of solving a
// different question.
func decodeShard(r io.Reader) (*ShardJob, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var shard ShardJob
	if err := dec.Decode(&shard); err != nil {
		return nil, err
	}
	return &shard, nil
}

func (w *Worker) handleSolve(rw http.ResponseWriter, r *http.Request) {
	shard, err := decodeShard(http.MaxBytesReader(rw, r.Body, maxShardBytes))
	if err != nil {
		http.Error(rw, "decode shard: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The semaphore bounds solver concurrency; a canceled dispatch stops
	// waiting instead of solving into the void.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		http.Error(rw, "canceled while queued", http.StatusServiceUnavailable)
		return
	}
	points, err := w.solve(r.Context(), shard)
	if err != nil {
		w.failed.Add(1)
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		http.Error(rw, err.Error(), status)
		return
	}
	w.served.Add(1)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(ColumnResult{Class: shard.Class, Points: points}) //nolint:errcheck // response committed
}

// solve runs one shard with the worker's solver configuration and records
// its effort.
func (w *Worker) solve(ctx context.Context, shard *ShardJob) ([]experiments.Point, error) {
	opts := experiments.Options{
		Parallel:     1,
		SolveTimeout: w.cfg.SolveTimeout,
		Ctx:          ctx,
	}
	opts.Bound.LP.CheckEvery = w.cfg.CheckEvery
	opts.Bound.LP.Presolve = w.cfg.Presolve
	points, err := shard.Solve(opts)
	if err != nil {
		return nil, err
	}
	var agg lp.Stats
	for _, p := range points {
		agg.Add(p.Stats)
	}
	w.lpStats.Record(agg)
	return points, nil
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	columns, total := w.lpStats.Snapshot()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(rw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("placementd_worker_shards_served_total", "Column shards solved successfully.", w.served.Load())
	counter("placementd_worker_shards_failed_total", "Column shards that failed or were canceled.", w.failed.Load())
	counter("placementd_worker_lp_columns_total", "Solved columns whose effort is aggregated below.", uint64(columns))
	counter("placementd_worker_lp_iterations_total", "Simplex iterations across all shard solves.", uint64(total.Iterations))
	counter("placementd_worker_lp_refactorizations_total", "Mid-solve basis refactorizations across all shard solves.", uint64(total.Refactorizations))
	fmt.Fprintf(rw, "# HELP placementd_worker_lp_wall_seconds_total Wall-clock seconds inside LP solves.\n# TYPE placementd_worker_lp_wall_seconds_total counter\nplacementd_worker_lp_wall_seconds_total %g\n", total.Wall.Seconds())
}

// RunHeartbeat registers the worker with the coordinator and keeps the
// registration fresh: one POST to /workers/register per interval until
// ctx is canceled. Registration is idempotent and the coordinator expires
// silent workers after its TTL, so the loop needs no state; transient
// failures (coordinator restarting) are reported through logf and retried
// on the next beat.
func RunHeartbeat(ctx context.Context, client *http.Client, coordinatorURL, advertiseURL string, interval time.Duration, logf func(format string, args ...interface{})) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	body, _ := json.Marshal(registerRequest{URL: advertiseURL})
	beat := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordinatorURL+"/workers/register", bytes.NewReader(body))
		if err != nil {
			logf("heartbeat: %v", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				logf("heartbeat: %v", err)
			}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			logf("heartbeat: coordinator answered %s", resp.Status)
		}
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}
