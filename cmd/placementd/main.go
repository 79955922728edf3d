// Command placementd is the long-running placement-advisory service: an
// HTTP JSON API where clients POST placement questions (topology +
// workload + heuristic classes + QoS goals) and poll for the per-class
// lower bounds. Identical questions are deduplicated through a
// content-addressed result cache; /metrics exposes queue, cache and
// solver-effort counters in Prometheus text format.
//
// The process runs in one of three modes:
//
//	standalone   (default) solve every job in-process — today's behavior
//	coordinator  serve the job API but dispatch each class column to
//	             registered workers, with a persistent content-addressed
//	             result store (-store) deduplicating across restarts
//	worker       solve column shards on demand (POST /solve) and
//	             heartbeat a coordinator (-coordinator/-advertise)
//
// Usage:
//
//	placementd -addr :8080 -workers 2
//	placementd -mode coordinator -addr :8080 -store /var/lib/placementd
//	placementd -mode worker -addr :8081 -coordinator http://coord:8080 \
//	    -advertise http://$(hostname):8081
//	curl -XPOST localhost:8080/jobs -d '{"spec":{"workload":"web","scale":"small"}}'
//	curl localhost:8080/jobs/j1/result?format=tsv
//	curl -N localhost:8080/jobs/j1/stream
//
// SIGTERM/SIGINT starts a graceful drain: in-flight jobs finish (up to
// -drain-timeout), new submissions get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"wideplace/internal/cli"
	"wideplace/internal/dist"
	"wideplace/internal/server"
)

func main() {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "placementd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("placementd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		mode         = fs.String("mode", "standalone", "process role: standalone, coordinator or worker")
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 2, "concurrent jobs (worker mode: concurrent shard solves)")
		queueDepth   = fs.Int("queue", 64, "bounded job-queue depth")
		parallel     = fs.Int("parallel", 0, "per-job sweep fan-out (0 = GOMAXPROCS)")
		solveTimeout = fs.Duration("solve-timeout", 0, "default wall-clock cap per LP solve (0 = unlimited)")
		checkEvery   = fs.Int("check-every", 0, "simplex cancellation poll interval in iterations (0 = solver default)")
		maxJobs      = fs.Int("max-jobs", 1024, "retained finished jobs")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "grace period for in-flight jobs on shutdown")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")

		// Coordinator-mode flags.
		storeDir     = fs.String("store", "", "coordinator: persistent result-store directory (empty = no persistence)")
		workerTTL    = fs.Duration("worker-ttl", 10*time.Second, "coordinator: drop workers silent for this long")
		shardTimeout = fs.Duration("shard-timeout", 10*time.Minute, "coordinator: wall-clock cap per shard dispatch attempt")
		shardRetries = fs.Int("shard-retries", 3, "coordinator: additional workers a failed shard is retried on")
		workerWait   = fs.Duration("worker-wait", time.Minute, "coordinator: how long a shard waits for any live worker")

		// Worker-mode flags.
		coordURL  = fs.String("coordinator", "", "worker: coordinator base URL to register with")
		advertise = fs.String("advertise", "", "worker: URL the coordinator should dispatch to (default http://<listen-addr>)")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "worker: registration heartbeat interval")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	presolveMode := lpFlags.Presolve()
	switch *mode {
	case "standalone", "coordinator", "worker":
	default:
		return fmt.Errorf("unknown mode %q (want standalone, coordinator or worker)", *mode)
	}
	if *mode != "coordinator" && *storeDir != "" {
		return fmt.Errorf("-store is a coordinator flag (mode is %s)", *mode)
	}
	if *mode != "worker" && (*coordURL != "" || *advertise != "") {
		return fmt.Errorf("-coordinator and -advertise are worker flags (mode is %s)", *mode)
	}

	logger := log.New(logw, "placementd: ", log.LstdFlags)
	cli.ServePprof(*pprofAddr, logger.Printf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	if *mode == "worker" {
		w := dist.NewWorker(dist.WorkerConfig{
			Concurrency:  *workers,
			SolveTimeout: *solveTimeout,
			CheckEvery:   *checkEvery,
			Presolve:     presolveMode,
		})
		if *coordURL != "" {
			adv := *advertise
			if adv == "" {
				adv = "http://" + ln.Addr().String()
			}
			go dist.RunHeartbeat(ctx, nil, strings.TrimRight(*coordURL, "/"), adv, *heartbeat, logger.Printf)
		}
		return serve(ctx, ln, w.Handler(), *drainTimeout, logger, nil)
	}

	cfg := server.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		Parallel:     *parallel,
		SolveTimeout: *solveTimeout,
		CheckEvery:   *checkEvery,
		Presolve:     presolveMode,
		MaxJobs:      *maxJobs,
	}
	if *mode == "coordinator" {
		var store *dist.Store
		if *storeDir != "" {
			if store, err = dist.NewStore(*storeDir); err != nil {
				ln.Close()
				return err
			}
			logger.Printf("result store at %s", store.Dir())
		}
		co := dist.NewCoordinator(dist.CoordinatorConfig{
			Store:        store,
			WorkerTTL:    *workerTTL,
			ShardTimeout: *shardTimeout,
			ShardRetries: *shardRetries,
			WorkerWait:   *workerWait,
			Logf:         logger.Printf,
		})
		cfg.Dispatcher = co
		srv := server.New(cfg)
		// The registry routes live beside the job API on one listener.
		mux := http.NewServeMux()
		mux.Handle("/workers", co.Handler())
		mux.Handle("/workers/", co.Handler())
		mux.Handle("/", srv.Handler())
		return serve(ctx, ln, mux, *drainTimeout, logger, srv)
	}
	srv := server.New(cfg)
	return serve(ctx, ln, srv.Handler(), *drainTimeout, logger, srv)
}

// serve runs the HTTP front end until ctx is canceled, then drains:
// stop accepting connections, let in-flight work finish within the grace
// period, abort past it. srv is nil in worker mode (no job queue to
// drain; in-flight shard solves end with their requests).
func serve(ctx context.Context, ln net.Listener, handler http.Handler, drainTimeout time.Duration, logger *log.Logger, srv *server.Server) error {
	httpSrv := &http.Server{Handler: handler}
	logger.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// running jobs finish within the grace period; past it, in-flight
	// solves are aborted at their next simplex poll.
	logger.Printf("shutting down, draining jobs (grace %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		httpSrv.Close() //nolint:errcheck // grace expired: sever lingering request bodies
	}
	if srv != nil {
		if err := srv.Drain(drainCtx); err != nil {
			logger.Printf("drain incomplete, in-flight jobs aborted: %v", err)
		} else {
			logger.Printf("drained cleanly")
		}
	} else {
		logger.Printf("drained cleanly")
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
