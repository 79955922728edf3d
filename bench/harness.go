package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark workload: a pool of reference instances, the
// set-up that prepares a run's inputs from its seed, and the operation its
// closed loop repeats.
type workload interface {
	name() string
	// tail is the latency quantile reported as latency_tail_ms: the
	// highest one with at least ten samples beyond it in a full run.
	tail() float64
	// useRef installs reference answers of the pool, as JSON.
	useRef(data []byte) error
	// makeRef recomputes the reference answers (the -write-ref mode),
	// logging pool candidates it had to exclude.
	makeRef(log io.Writer) (any, error)
	// setup prepares one run's inputs; tr, when non-nil, records spans
	// around the public calls the set-up makes.
	setup(seed uint64, tr *tracer) (session, error)
	// layers derives the per-layer metrics from the counters summed over
	// the untraced phase (c) and the traced phase (tc), the spans of the
	// traced phase, and the number of operations attempted in each phase.
	layers(c, tc counters, tr *tracer, ops int) map[string]float64
}

// session is one set-up's worth of prepared inputs.
type session interface {
	// callers is the number of concurrent closed-loop callers.
	callers() int
	// op runs operation i. tr is nil in the untraced phase; lane numbers
	// the calling goroutine for the trace viewer.
	op(i int, tr *tracer, lane int) outcome
	close()
}

// outcome is what one operation reports.
type outcome struct {
	samples           []time.Duration // latency samples (one per sweep, step, job or compile)
	busy              time.Duration   // time inside the measured calls
	work              float64         // work units answered correctly
	attempted, failed int
	problems          []string
	// answer is a canonical rendering of everything the operation
	// returned; the traced phase must reproduce it bit for bit.
	answer   string
	counters counters
}

// counters are per-layer tallies summed over operations.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

type runConfig struct {
	seed    uint64
	seconds float64
	ops     int // fixed operation count; 0 measures for seconds
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runReport struct {
	result   result
	problems []string
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, for every workload; a
// layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"workload.counts_s", "s"},
	{"workload.requests_per_s", "1/s"},
	{"workload.counts_nnz", "count"},
	{"workload.interval_reads_us_p50", "us"},
	{"scenario.compile_s", "s"},
	{"scenario.fingerprint_s", "s"},
	{"scenario.compile_other_s", "s"},
	{"core.instance_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.rebind_us", "us"},
	{"core.round_ms", "ms"},
	{"core.lp_vars_mean", "count"},
	{"core.cert_gap_pct", "%"},
	{"lp.solve_s", "s"},
	{"lp.cold_solve_ms_p50", "ms"},
	{"lp.warm_solve_ms_p50", "ms"},
	{"lp.step_solve_ms_p50", "ms"},
	{"lp.ns_per_iteration", "ns"},
	{"lp.iterations", "count"},
	{"lp.phase1_iterations", "count"},
	{"lp.dual_iterations", "count"},
	{"lp.degenerate_steps", "count"},
	{"lp.degenerate_frac", "ratio"},
	{"lp.refactorizations", "count"},
	{"lp.pivot_rejections", "count"},
	{"lp.bound_flips", "count"},
	{"lp.pricing_scans", "count"},
	{"lp.presolve_rows_removed", "count"},
	{"lp.basis_repairs", "count"},
	{"lp.warm_frac", "ratio"},
	{"lp.numerical_failures", "count"},
	{"experiments.sweep_web_s", "s"},
	{"experiments.sweep_group_s", "s"},
	{"experiments.parallel_eff", "ratio"},
	{"experiments.critical_column_s", "s"},
	{"controller.new_ms", "ms"},
	{"controller.self_ms_p50", "ms"},
	{"controller.changed_coefs_mean", "count"},
	{"controller.churn_mean", "count"},
	{"controller.staleness_mean", "ratio"},
	{"server.job_hit_p50_ms", "ms"},
	{"server.job_hit_p95_ms", "ms"},
	{"server.job_miss_p50_ms", "ms"},
	{"server.job_miss_p90_ms", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.request_kb_mean", "KB"},
	{"server.cache_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// execute runs one workload: set-up (several times), then the closed loop
// for cfg.seconds or cfg.ops operations. An untraced run reports the
// end-to-end metrics. A traced run measures half the time untraced, then
// repeats exactly those operations on a second set-up with spans on, and
// reports the per-layer metrics.
func execute(w workload, cfg runConfig, out io.Writer) (*runReport, *tracer, error) {
	runtime.GOMAXPROCS(procs())
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sessions, setupS, err := setUp(w, cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, s := range sessions {
			s.close()
		}
	}()

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	runtime.GC()
	start := time.Now()
	outs := loop(sessions[0], nil, cfg.ops, start.Add(time.Duration(phase*float64(time.Second))))
	wall := time.Since(start)
	fmt.Fprintf(out, "# bench workload=%s seed=%d seconds=%g ops=%d trace=%d gomaxprocs=%d\n",
		w.name(), cfg.seed, cfg.seconds, len(outs), b2i(cfg.trace), runtime.GOMAXPROCS(0))

	rep := &runReport{result: result{Metrics: make(map[string]metric)}}
	var (
		samples []time.Duration
		work    float64
		busy    time.Duration
		sum     = counters{}
	)
	for _, o := range outs {
		rep.result.Attempted += o.attempted
		rep.result.Failed += o.failed
		rep.problems = append(rep.problems, o.problems...)
		samples = append(samples, o.samples...)
		work += o.work
		busy += o.busy
		sum.add(o.counters)
	}

	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		values := map[string]float64{
			"setup_s":         median(setupS),
			"work_per_s":      work / wall.Seconds(),
			"latency_p50_ms":  ms(quantile(samples, 0.5)),
			"latency_tail_ms": ms(quantile(samples, w.tail())),
			"peak_rss_mb":     rss,
		}
		for _, d := range endToEnd {
			rep.result.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		runtime.GC()
		traced := loop(sessions[len(sessions)-1], tr, len(outs), time.Time{})
		var tracedBusy time.Duration
		tsum := counters{}
		for i, o := range traced {
			tracedBusy += o.busy
			tsum.add(o.counters)
			switch {
			case o.answer != outs[i].answer:
				rep.result.Failed++
				rep.problems = append(rep.problems, fmt.Sprintf("operation %d: traced answer differs from the untraced one: %s vs %s",
					i, abbreviate(o.answer), abbreviate(outs[i].answer)))
			case o.failed > 0 && outs[i].failed == 0:
				rep.result.Failed += o.failed
				rep.problems = append(rep.problems, o.problems...)
			}
		}
		values := w.layers(sum, tsum, tr, rep.result.Attempted)
		if busy > 0 {
			values["trace.overhead_pct"] = (tracedBusy.Seconds()/busy.Seconds() - 1) * 100
		}
		known := make(map[string]bool)
		for _, d := range perLayer {
			known[d.name] = true
			rep.result.Metrics[d.name] = metric{values[d.name], d.unit}
		}
		for name := range values {
			if !known[name] {
				return nil, nil, fmt.Errorf("workload %s reports undeclared per-layer metric %q", w.name(), name)
			}
		}
		tr.writeSelfTable(out)
	}
	rep.result.Correct = rep.result.Failed == 0
	return rep, tr, nil
}

// setUp sets the workload up several times and times each. It keeps the
// last session for the untraced phase and, in a traced run, the last two:
// the second-to-last for the untraced phase and the last, whose set-up is
// traced, for the traced phase. Earlier sessions close at once.
func setUp(w workload, cfg runConfig, tr *tracer) ([]session, []float64, error) {
	keep := 1
	if cfg.trace {
		keep = 2
	}
	var (
		kept  []session
		times []float64
	)
	for k := 0; k < setups; k++ {
		var str *tracer
		if k == setups-1 {
			str = tr
		}
		if len(kept) == keep {
			kept[0].close()
			kept = kept[1:]
		}
		// Collect the closed session's garbage outside the timed region, so
		// that no set-up pays for another and the peak RSS holds the
		// inputs of the sessions kept, not of every set-up.
		runtime.GC()
		start := time.Now()
		s, err := w.setup(cfg.seed, str)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			for _, s := range kept {
				s.close()
			}
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		kept = append(kept, s)
	}
	return kept, times, nil
}

// loop runs the session's closed loop: each caller starts its next
// operation only once its previous one has answered. It runs until the
// deadline passes, or exactly count operations when count > 0, and
// returns the outcomes in operation order.
func loop(s session, tr *tracer, count int, deadline time.Time) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		done = make(map[int]outcome)
		wg   sync.WaitGroup
	)
	for lane := 0; lane < s.callers(); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if count > 0 && i >= count {
					return
				}
				o := s.op(i, tr, lane)
				mu.Lock()
				done[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	outs := make([]outcome, len(done))
	for i, o := range done {
		outs[i] = o
	}
	return outs
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// quantile is the q-quantile of the samples by linear interpolation
// between closest ranks (0 for no samples).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return sum(d) / time.Duration(len(d))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func abbreviate(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
