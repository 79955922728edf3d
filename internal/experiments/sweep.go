package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/lp"
)

// Options configures a figure run: the bound computation itself plus the
// sweep engine that fans the independent (class, QoS) cells out across
// workers.
type Options struct {
	// Bound configures each lower-bound computation.
	Bound core.BoundOptions
	// Parallel is the number of concurrent solves: 0 means GOMAXPROCS,
	// 1 runs the sweep serially. Results are slotted by cell index, so
	// the output is byte-identical at every setting.
	Parallel int
	// SolveTimeout caps each LP solve's wall clock (0 = unlimited); one
	// pathological solve then fails with lp.ErrTimeout instead of
	// hanging the whole figure.
	SolveTimeout time.Duration
	// ColumnSolver, when non-nil, replaces the local solve of each class
	// column: the sweep calls it once per class with the full ascending
	// QoS grid and slots the returned points by grid index, exactly as the
	// local warm chain would. The hook must return one Point per QoS value
	// in input order (points[qi].QoS == qos[qi]). Figure assembly — class
	// order, titles, slotting, the solver-stats footer — is unchanged, so
	// a hook that solves columns elsewhere with the same solver settings
	// yields byte-identical TSVs.
	ColumnSolver func(ctx context.Context, class string, qos []float64) ([]Point, error)
	// Ctx cancels the whole sweep (nil = context.Background()).
	Ctx context.Context
	// OnCell, when non-nil, receives (done, total) after every completed
	// sweep cell. Calls are serialized and done is strictly increasing, so
	// long-running callers (the placement service) can expose it as a
	// progress gauge without extra locking.
	OnCell func(done, total int)
}

// workers resolves the worker count for n cells.
func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// context resolves the sweep context.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// boundOptions threads the sweep's cancellation context and per-solve
// timeout into the LP options of one cell.
func (o Options) boundOptions(ctx context.Context) core.BoundOptions {
	b := o.Bound
	b.LP.Ctx = ctx
	if o.SolveTimeout > 0 {
		b.LP.Timeout = o.SolveTimeout
	}
	return b
}

// cellTicker returns a completion callback for a sweep of total cells:
// each invocation bumps the done counter and forwards it to OnCell. The
// returned function is safe to call from concurrent workers.
func (o Options) cellTicker(total int) func() {
	if o.OnCell == nil {
		return func() {}
	}
	var (
		mu   sync.Mutex
		done int
	)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		o.OnCell(done, total)
	}
}

// runCells executes fn for every index in [0, n) on a bounded worker
// pool. fn writes its result into its own pre-allocated slot, which keeps
// result ordering deterministic regardless of completion order. The first
// error cancels the remaining cells; its cause is returned (later
// cancellation-induced errors are dropped).
func runCells(parent context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return // sweep canceled: drain nothing further
				}
				if err := fn(ctx, i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// The parent may have been canceled between cells without any fn
	// observing it.
	return context.Cause(ctx)
}

// ascendingQoS returns the indices of qos sorted by ascending goal value,
// the order in which a warm chain visits a column: each tighter goal
// reuses the basis of the previous, slightly looser solve.
func ascendingQoS(qos []float64) []int {
	order := make([]int, len(qos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qos[order[a]] < qos[order[b]] })
	return order
}

// solveColumn computes one class's bounds over all QoS points in
// ascending goal order, feeding each solution's basis into the next solve
// (the warm chain). Results are delivered through out with their original
// qos index, so callers keep the same slotting as the per-cell sweep. An
// infeasible point keeps the chain's last good basis: on an ascending
// ladder, tighter goals after a failure still warm-start from the last
// feasible solve's basis.
// The column also compiles its model only once: the first
// attainable goal builds a core.CompiledQoS and later goals move just the
// QoS right-hand sides (Rebind), skipping the per-cell model rebuild. An
// unattainable rebind reports the cell infeasible and leaves the compiled
// problem at its last good goal, mirroring how the fresh-build path skips
// the cell.
func solveColumn(ctx context.Context, sys *System, class *core.Class, qos []float64, opts Options, progress Progress, tick func(), out func(qi int, p Point)) error {
	var (
		start *lp.Basis
		comp  *core.CompiledQoS
	)
	for _, qi := range ascendingQoS(qos) {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		q := qos[qi]
		bo := opts.boundOptions(ctx)
		bo.LP.Start = start
		startT := time.Now()
		var (
			p     Point
			basis *lp.Basis
			err   error
		)
		switch {
		case comp == nil:
			// No compiled problem yet (first cell, or every goal so far
			// was unattainable at build time): compile at this goal.
			inst, ierr := sys.Instance(q)
			if ierr != nil {
				return ierr
			}
			var cerr error
			comp, cerr = inst.CompileQoS(class)
			switch {
			case errors.Is(cerr, core.ErrGoalUnattainable):
				p = Point{Class: class.Name, QoS: q, Infeasible: true}
				comp = nil
			case cerr != nil:
				err = cerr
			default:
				p, basis, err = reboundPoint(comp, class, q, bo)
			}
		default:
			switch rerr := comp.Rebind(q); {
			case errors.Is(rerr, core.ErrGoalUnattainable):
				p = Point{Class: class.Name, QoS: q, Infeasible: true}
			case rerr != nil:
				err = rerr
			default:
				p, basis, err = reboundPoint(comp, class, q, bo)
			}
		}
		if err != nil {
			return fmt.Errorf("%s at %g: %w", class.Name, q, err)
		}
		progress.logPoint(p, time.Since(startT))
		out(qi, p)
		if basis != nil {
			start = basis
		}
		tick()
	}
	return nil
}

// syncProgress serializes a Progress callback so concurrent workers never
// interleave lines.
func syncProgress(p Progress) Progress {
	if p == nil {
		return nil
	}
	var mu sync.Mutex
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		p(format, args...)
	}
}
