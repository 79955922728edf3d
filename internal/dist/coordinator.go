package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wideplace/internal/experiments"
)

// CoordinatorConfig configures the dispatch side.
type CoordinatorConfig struct {
	// Store persists solved columns (nil = dispatch-only, no
	// persistence).
	Store *Store
	// WorkerTTL expires a worker that has not heartbeat recently
	// (default 10s). A killed worker stops being picked within one TTL
	// even if its death was never observed on a dispatch.
	WorkerTTL time.Duration
	// ShardTimeout caps one remote dispatch attempt end to end (default
	// 10m).
	ShardTimeout time.Duration
	// ShardRetries is how many additional workers a shard is retried on
	// after a transport failure (default 3).
	ShardRetries int
	// WorkerWait bounds how long a dispatch waits for any live worker to
	// appear before failing the shard (default 60s); it covers the
	// coordinator-starts-before-workers race.
	WorkerWait time.Duration
	// Logf receives one line per notable event (nil = silent).
	Logf func(format string, args ...interface{})
}

// Coordinator owns the workers and the store, and solves columns by store
// lookup or dispatch to a worker. The serving layer solves every job's
// columns through it: jobs, dedup, progress and results all stay in the
// server; the coordinator only answers "solve this column".
type Coordinator struct {
	cfg CoordinatorConfig
	// client issues the dispatch requests. It has no global timeout;
	// per-shard timeouts come from ShardTimeout.
	client *http.Client
	// local, when set, is the coordinator's one worker, running in this
	// process; no remote worker is then dispatched to.
	local *Worker

	mu       sync.Mutex
	lastSeen map[string]time.Time // worker URL -> last heartbeat
	rr       uint64               // round-robin cursor

	dispatched   atomic.Uint64
	retries      atomic.Uint64
	failures     atomic.Uint64
	storeHits    atomic.Uint64
	storeMisses  atomic.Uint64
	storeCorrupt atomic.Uint64
}

// NewCoordinator returns a coordinator with defaults applied.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 10 * time.Second
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	if cfg.ShardRetries < 0 {
		cfg.ShardRetries = 0
	} else if cfg.ShardRetries == 0 {
		cfg.ShardRetries = 3
	}
	if cfg.WorkerWait <= 0 {
		cfg.WorkerWait = time.Minute
	}
	return &Coordinator{cfg: cfg, client: &http.Client{}, lastSeen: make(map[string]time.Time)}
}

// NewLocalCoordinator returns the coordinator of a standalone server: its
// one worker is w, running in process on the system each shard carries,
// as many shards at once as the server dispatches (w's Concurrency bounds
// only its HTTP handler). It keeps no store and takes no registrations.
// An in-process solve has no transport to fail, so nothing is retried,
// and no shard timeout caps it: the solver's own per-solve timeout still
// bounds every LP.
func NewLocalCoordinator(w *Worker) *Coordinator {
	c := NewCoordinator(CoordinatorConfig{})
	c.local = w
	return c
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Register records a worker heartbeat.
func (c *Coordinator) Register(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.lastSeen[url]; !known {
		c.logf("worker %s registered", url)
	}
	c.lastSeen[url] = time.Now()
}

// forget drops a worker that failed a dispatch; its heartbeat re-adds it
// if it is merely slow rather than dead.
func (c *Coordinator) forget(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.lastSeen[url]; known {
		delete(c.lastSeen, url)
		c.logf("worker %s dropped after a failed dispatch", url)
	}
}

// alive lists workers seen within the TTL, sorted for a stable
// round-robin order.
func (c *Coordinator) alive() []string {
	cutoff := time.Now().Add(-c.cfg.WorkerTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, 0, len(c.lastSeen))
	for url, seen := range c.lastSeen {
		if seen.After(cutoff) {
			urls = append(urls, url)
		} else {
			delete(c.lastSeen, url)
			c.logf("worker %s expired (no heartbeat for %s)", url, c.cfg.WorkerTTL)
		}
	}
	sort.Strings(urls)
	return urls
}

// WorkerView is one registry row of GET /workers.
type WorkerView struct {
	URL      string    `json:"url"`
	LastSeen time.Time `json:"lastSeen"`
}

// Workers snapshots the live registry.
func (c *Coordinator) Workers() []WorkerView {
	urls := c.alive()
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]WorkerView, 0, len(urls))
	for _, url := range urls {
		views = append(views, WorkerView{URL: url, LastSeen: c.lastSeen[url]})
	}
	return views
}

// pickWorker chooses the worker for the next attempt at a shard: the
// in-process worker when there is one, else the next live worker not yet
// tried for this shard, waiting up to WorkerWait for one to appear. When
// every live worker has been tried, the tried set is cleared:
// re-dispatching to a worker whose transport failed beats failing a
// retriable shard outright.
func (c *Coordinator) pickWorker(ctx context.Context, tried map[string]bool) (string, error) {
	if c.local != nil {
		return "in-process", nil
	}
	deadline := time.Now().Add(c.cfg.WorkerWait)
	for {
		urls := c.alive()
		if len(urls) > 0 {
			fresh := urls[:0:0]
			for _, u := range urls {
				if !tried[u] {
					fresh = append(fresh, u)
				}
			}
			if len(fresh) == 0 {
				for u := range tried {
					delete(tried, u)
				}
				fresh = urls
			}
			c.mu.Lock()
			c.rr++
			pick := fresh[c.rr%uint64(len(fresh))]
			c.mu.Unlock()
			return pick, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("dist: no live worker appeared within %s", c.cfg.WorkerWait)
		}
		select {
		case <-ctx.Done():
			return "", context.Cause(ctx)
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// SolveColumn answers one column: from the store when the column was ever
// solved before (by any coordinator lifetime against the same store),
// otherwise by dispatching the shard to a worker and persisting the
// result. Only a transport failure — the worker was unreachable, the
// attempt timed out, or the reply was cut off — is retried, on another
// worker. A worker that answers with an error fails the shard at once:
// solves are deterministic, so the shard itself is at fault. The bool
// reports a store-served column, which the caller uses to keep "fresh
// solver effort" metrics honest across restarts.
func (c *Coordinator) SolveColumn(ctx context.Context, shard ShardJob) ([]experiments.Point, bool, error) {
	key := ColumnKey(shard.Fingerprint, shard.Class)
	if c.cfg.Store != nil {
		points, ok, err := c.cfg.Store.Get(key)
		if err != nil {
			c.storeCorrupt.Add(1)
			c.logf("store: %v (re-solving)", err)
		}
		if ok {
			c.storeHits.Add(1)
			return points, true, nil
		}
		c.storeMisses.Add(1)
	}

	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.ShardRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, false, context.Cause(ctx)
		}
		if attempt > 0 {
			c.retries.Add(1)
		}
		url, err := c.pickWorker(ctx, tried)
		if err != nil {
			c.failures.Add(1)
			if lastErr != nil {
				return nil, false, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return nil, false, err
		}
		tried[url] = true
		c.dispatched.Add(1)
		points, err := c.dispatch(ctx, url, &shard)
		if err != nil {
			if ctx.Err() != nil {
				// The job itself was canceled; that is not the worker's
				// fault and not retriable.
				return nil, false, context.Cause(ctx)
			}
			lastErr = fmt.Errorf("worker %s: %w", url, err)
			c.logf("shard %s/%s attempt %d: %v", shard.Fingerprint, shard.Class, attempt+1, lastErr)
			if !errors.Is(err, errTransport) {
				c.failures.Add(1)
				return nil, false, lastErr
			}
			// A transport failure marks the worker dead until its
			// heartbeat returns.
			c.forget(url)
			continue
		}
		if c.cfg.Store != nil {
			if perr := c.cfg.Store.Put(key, shard.Class, shard.Fingerprint, points); perr != nil {
				// Persistence is an optimization; the column is already
				// solved.
				c.logf("store: persist %s: %v", key, perr)
			}
		}
		return points, false, nil
	}
	c.failures.Add(1)
	return nil, false, fmt.Errorf("dist: shard %s exhausted %d attempts: %w", shard.Class, c.cfg.ShardRetries+1, lastErr)
}

// errTransport marks an attempt that failed on the way to or from a
// remote worker (connection refused or reset, timeout, reply cut off),
// as opposed to an answer the worker gave.
var errTransport = errors.New("transport failure")

// dispatch runs one attempt on one worker.
func (c *Coordinator) dispatch(ctx context.Context, workerURL string, shard *ShardJob) ([]experiments.Point, error) {
	if c.local != nil {
		return c.local.solve(ctx, shard)
	}
	body, err := json.Marshal(shard)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var res ColumnResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("%w: decode result: %v", errTransport, err)
	}
	if res.Class != shard.Class {
		return nil, fmt.Errorf("answered class %q, want %q", res.Class, shard.Class)
	}
	return res.Points, nil
}

// registerRequest is the body of POST /workers/register.
type registerRequest struct {
	URL string `json:"url"`
}

// Handler returns the coordinator's registry API:
//
//	POST /workers/register  worker heartbeat ({"url": advertise-URL})
//	GET  /workers           live registry snapshot
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers/register", func(rw http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 4096)).Decode(&req); err != nil {
			http.Error(rw, "decode registration: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.URL == "" {
			http.Error(rw, "registration needs a url", http.StatusBadRequest)
			return
		}
		c.Register(req.URL)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte("{}\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /workers", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck
			Workers []WorkerView `json:"workers"`
		}{c.Workers()})
	})
	return mux
}

// WriteMetrics appends the coordinator's counters in Prometheus text
// format; the serving layer splices it into its /metrics exposition.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("placementd_dist_shards_dispatched_total", "Column shards sent to workers (retries included).", c.dispatched.Load())
	counter("placementd_dist_shard_retries_total", "Shard dispatches that were retried on another worker.", c.retries.Load())
	counter("placementd_dist_shard_failures_total", "Shards that exhausted every retry.", c.failures.Load())
	counter("placementd_dist_store_hits_total", "Columns served from the persistent result store.", c.storeHits.Load())
	counter("placementd_dist_store_misses_total", "Columns not found in the store and dispatched.", c.storeMisses.Load())
	counter("placementd_dist_store_corrupt_total", "Store entries rejected as corrupt and re-solved.", c.storeCorrupt.Load())
	fmt.Fprintf(w, "# HELP placementd_dist_workers Live registered workers.\n# TYPE placementd_dist_workers gauge\nplacementd_dist_workers %d\n", len(c.alive()))
}
