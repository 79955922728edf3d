// Command stress sweeps registered scenarios up a size ladder and records
// how solver effort scales with the site count. For every scenario and
// every ladder size it rescales the spec (scenario.Spec.WithNodes), runs
// the full bound sweep and writes one TSV per size, including the
// deterministic "# solver:" footer. The TSVs are its only artifact.
//
// Usage:
//
//	stress -list                                  # registered scenarios
//	stress                                        # default ladder on the two structural families
//	stress -scenarios flash-crowd -sizes 20,50    # one family, short ladder
//	stress -scenarios slow-scenario@100           # skip this scenario's rungs above 100 sites
//	stress -out results/                          # write the TSVs elsewhere
//
// A scenario reference may carry an "@maxSites" suffix capping the ladder
// for that scenario alone — scenarios whose cost grows with request volume
// (the GROUP-workload families) can then share one run with scenarios
// that climb the full ladder.
//
// Rungs at or above -xcheck-above sites additionally run the Lagrangian
// decomposition engine on the least-constrained class and verify its bound
// never exceeds the LP bound — an independent sanity check on the solver at
// exactly the sizes where no second exact solver is affordable. On tree
// topologies, -xcheck-exact (default on) additionally solves every
// supported (class, QoS) cell to provable optimality with the subtree DP
// (internal/exact) and asserts LP bound <= exact optimum <= certificate.
// Every cross-check verdict is recorded in the rung's TSV footer
// ("# xcheck:" lines), so a violation is preserved in the run's
// artifacts; the run itself still writes all TSVs before exiting non-zero.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wideplace/internal/atomicio"
	"wideplace/internal/cli"
	"wideplace/internal/core"
	"wideplace/internal/exact"
	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag    = fs.Bool("list", false, "list registered scenarios and exit")
		scenFlag    = fs.String("scenarios", "transit-stub-100,remote-office-clustered@100", "comma-separated scenario names or spec files, each optionally capped with @maxSites")
		sizesFlag   = fs.String("sizes", "20,50,100,250,500", "comma-separated site-count ladder")
		outFlag     = fs.String("out", ".", "directory for per-size TSV files")
		rounding    = fs.Bool("rounding", false, "also compute tightness certificates (slower; bounds are unchanged)")
		parallel    = fs.Int("parallel", 0, "concurrent bound solves (0 = GOMAXPROCS, 1 = serial)")
		solveCap    = fs.Duration("solve-timeout", 0, "wall-clock cap per LP solve (0 = unlimited)")
		verbose     = fs.Bool("v", false, "print per-bound progress (incl. solver stats) to stderr")
		reqFlag     = fs.Int("requests", 0, "override every scenario's request volume (0 = keep each spec's; accesses stream into counts, so volume costs time, not memory)")
		xcheckAbove = fs.Int("xcheck-above", 250, "cross-check rungs with at least this many sites against the Lagrangian bound engine (0 = never)")
		xcheckExact = fs.Bool("xcheck-exact", true, "on tree rungs, verify LP bound <= exact DP optimum <= certificate for every supported cell")
	)
	lpFlags := cli.RegisterLPFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listFlag {
		for _, spec := range scenario.Specs() {
			fmt.Fprintf(stdout, "%-26s %s\n", spec.Name, spec.Description)
		}
		return nil
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	type laddered struct {
		spec     scenario.Spec
		maxSites int // 0 = no cap
	}
	var specs []laddered
	for _, ref := range strings.Split(*scenFlag, ",") {
		ref = strings.TrimSpace(ref)
		maxSites := 0
		if at := strings.LastIndex(ref, "@"); at >= 0 {
			n, err := strconv.Atoi(ref[at+1:])
			if err != nil || n < 3 {
				return fmt.Errorf("bad scenario size cap %q (want name@maxSites with maxSites >= 3)", ref)
			}
			maxSites, ref = n, ref[:at]
		}
		spec, err := scenario.Load(ref)
		if err != nil {
			return err
		}
		specs = append(specs, laddered{spec: spec, maxSites: maxSites})
	}
	if len(specs) == 0 {
		return fmt.Errorf("no scenarios selected")
	}
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		return err
	}

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	progress := cli.Progress(*verbose, stderr)
	opts := experiments.Options{
		Parallel:     *parallel,
		SolveTimeout: *solveCap,
		Ctx:          ctx,
	}
	opts.Bound.SkipRounding = !*rounding
	opts.Bound.LP.Presolve = lpFlags.Presolve()

	// Cross-check violations are collected run-wide and only returned
	// after every TSV is on disk: the artifacts of a failed run are
	// exactly what's needed to diagnose it, and the "# xcheck:" footers
	// carry each verdict.
	var violations []string
	for _, lad := range specs {
		base := lad.spec
		for _, n := range sizes {
			if lad.maxSites > 0 && n > lad.maxSites {
				continue
			}
			start := time.Now()
			res, err := cli.ResolveScenario(base, "stress", cli.ScenarioOptions{Nodes: n, Requests: *reqFlag}, stderr)
			if err != nil {
				return fmt.Errorf("%s at %d nodes: %w", base.Name, n, err)
			}
			title := fmt.Sprintf("stress %s at %d nodes: lower bounds per heuristic class", base.Name, n)
			fig, err := experiments.Sweep(res.System, res.Classes, title, opts, progress)
			if err != nil {
				return fmt.Errorf("%s at %d nodes: %w", base.Name, n, err)
			}
			wall := time.Since(start)
			cells, agg := fig.SolverStats()
			var footers []string
			if *xcheckAbove > 0 && n >= *xcheckAbove {
				xc, err := lagrangianXCheck(res.System, fig, opts.Bound.LP)
				if err != nil {
					return fmt.Errorf("%s at %d nodes: Lagrangian cross-check: %w", base.Name, n, err)
				}
				if xc != nil {
					footers = append(footers, fmt.Sprintf(
						"# xcheck: engine=lagrangian class=%s qos=%g lagrangian=%.6g lp=%.6g verdict=%s",
						xc.Class, xc.QoS, xc.Lagrangian, xc.LPBound, xc.Verdict))
					fmt.Fprintf(stderr, "stress: %s n=%d xcheck: lagrangian(%s, qos=%g) = %.0f vs lp bound %.0f: %s\n",
						base.Name, n, xc.Class, xc.QoS, xc.Lagrangian, xc.LPBound, xc.Verdict)
					if xc.Verdict != verdictOK {
						violations = append(violations, fmt.Sprintf(
							"%s n=%d: lagrangian bound %.6f exceeds LP bound %.6f at qos=%g",
							base.Name, n, xc.Lagrangian, xc.LPBound, xc.QoS))
					}
				}
			}
			if *xcheckExact {
				exc, err := exactXCheck(res, opts.Bound.LP)
				if err != nil {
					return fmt.Errorf("%s at %d nodes: exact cross-check: %w", base.Name, n, err)
				}
				for _, x := range exc {
					footers = append(footers, fmt.Sprintf(
						"# xcheck: engine=exact class=%s qos=%g lp=%.6g exact=%g cert=%.6g replicas=%d verdict=%s",
						x.Class, x.QoS, x.LPBound, x.Exact, x.Certificate, x.Replicas, x.Verdict))
					if x.Verdict != verdictOK {
						violations = append(violations, fmt.Sprintf(
							"%s n=%d: exact oracle %s at qos=%g: %s (lp=%.12g exact=%.12g cert=%.12g)",
							base.Name, n, x.Class, x.QoS, x.Verdict, x.LPBound, x.Exact, x.Certificate))
					}
				}
				if len(exc) > 0 {
					fmt.Fprintf(stderr, "stress: %s n=%d xcheck: exact oracle on %d cell(s): %s\n",
						base.Name, n, len(exc), exactSummary(exc))
				}
			}
			path := filepath.Join(*outFlag, fmt.Sprintf("stress_%s_n%d.tsv", base.Name, n))
			if err := writeTSV(path, fig, footers); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\tn=%d\tcells=%d\titerations=%d\twall=%s\t%s\n",
				base.Name, n, cells, agg.Iterations, wall.Round(time.Millisecond), path)
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "stress: FAIL: %s\n", v)
		}
		return fmt.Errorf("%d cross-check violation(s); TSVs were still written", len(violations))
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad ladder size %q: %w", part, err)
		}
		if n < 3 {
			return nil, fmt.Errorf("ladder size %d too small (need at least 3 sites)", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ladder sizes in %q", s)
	}
	return out, nil
}

// writeTSV lands a rung's TSV atomically: a crashed or interrupted run
// never leaves a truncated artifact where a complete one is expected.
func writeTSV(path string, fig *experiments.Figure, footers []string) error {
	var buf bytes.Buffer
	if err := fig.WriteTSV(&buf); err != nil {
		return err
	}
	for _, line := range footers {
		fmt.Fprintln(&buf, line)
	}
	return atomicio.WriteFile(path, buf.Bytes(), 0o644)
}

// verdictOK marks a passed cross-check; any other verdict string names
// the violated inequality and is carried verbatim into the TSV footer.
const verdictOK = "ok"

// lagrangianCheck records one rung's Lagrangian cross-check: an
// independent lower-bound engine run on the least-constrained class at the
// loosest QoS point, whose value must never exceed the LP bound. Verdict
// is "ok" or the violated inequality.
type lagrangianCheck struct {
	Class      string
	QoS        float64
	Lagrangian float64
	LPBound    float64
	Verdict    string
}

// exactCheck records one tree-rung cell of the exact-oracle cross-check:
// the DP optimum bracketed by the stack's own LP bound and rounded
// certificate.
type exactCheck struct {
	Class       string
	QoS         float64
	LPBound     float64
	Exact       float64
	Certificate float64
	Replicas    int
	Verdict     string
}

// lagrangianXCheck runs the Lagrangian decomposition engine on the
// least-constrained class at the loosest feasible QoS point of the sweep
// and checks its value never exceeds the LP bound there. Any class's LP
// bound dominates the general class's, which in turn dominates every
// Lagrangian iterate, so a violation can only mean a solver bug — exactly
// the independent signal wanted at sizes where no second exact solver is
// affordable. A violation is reported in the returned record's Verdict,
// not as an error, so the rung's artifacts still get written; errors are
// reserved for the check itself failing to run. Returns nil (no check)
// when the sweep has no feasible general cell.
func lagrangianXCheck(sys *experiments.System, fig *experiments.Figure, lpOpts lp.Options) (*lagrangianCheck, error) {
	var pt *experiments.Point
	for si := range fig.Series {
		s := &fig.Series[si]
		if s.Name != "general" {
			continue
		}
		for pi := range s.Points {
			if !s.Points[pi].Infeasible {
				pt = &s.Points[pi]
				break
			}
		}
		break
	}
	if pt == nil {
		return nil, nil
	}
	inst, err := sys.Instance(pt.QoS)
	if err != nil {
		return nil, err
	}
	// Few subgradient iterations: every iterate is already a valid lower
	// bound, and the check needs validity, not tightness.
	b, err := inst.LagrangianBound(core.General(), core.LagrangianOptions{MaxIters: 60, LP: lpOpts})
	if err != nil {
		return nil, err
	}
	const tol = 1e-6
	verdict := verdictOK
	if b.LPBound > pt.Bound*(1+tol)+tol {
		verdict = "FAIL:lagrangian-above-lp"
	}
	return &lagrangianCheck{Class: "general", QoS: pt.QoS, Lagrangian: b.LPBound, LPBound: pt.Bound, Verdict: verdict}, nil
}

// exactXCheck runs the tree-network optimality oracle (internal/exact)
// on every (class, QoS) cell of a rung: the DP optimum must be bracketed
// by the stack's LP lower bound from below and the rounded certificate
// from above. Non-tree topologies return no records at all, and cells
// outside the oracle's scope (multi-interval, Tqos < 1, unsupported
// class shape) are skipped — the oracle only speaks where it is exact.
// Violations land in each record's Verdict; errors mean the check could
// not run.
func exactXCheck(res *scenario.Result, lpOpts lp.Options) ([]exactCheck, error) {
	if _, err := res.System.Topo.TreeParents(); err != nil {
		return nil, nil
	}
	const tol = 1e-9
	var out []exactCheck
	for _, tqos := range res.System.Spec.QoSPoints {
		inst, err := res.System.Instance(tqos)
		if err != nil {
			return nil, err
		}
		for _, class := range res.Classes {
			sol, err := exact.SolveInstance(inst, class)
			if errors.Is(err, exact.ErrUnsupported) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s at qos=%g: %w", class.Name, tqos, err)
			}
			// Rounding is forced on here regardless of -rounding: the
			// certificate is the upper half of the oracle chain.
			b, err := inst.LowerBound(class, core.BoundOptions{LP: lpOpts})
			if err != nil {
				return nil, fmt.Errorf("%s at qos=%g: lower bound: %w", class.Name, tqos, err)
			}
			verdict := verdictOK
			switch {
			case b.LPBound > sol.Cost+tol:
				verdict = "FAIL:lp-above-exact"
			case sol.Cost > b.FeasibleCost+tol:
				verdict = "FAIL:exact-above-cert"
			}
			out = append(out, exactCheck{
				Class:       class.Name,
				QoS:         tqos,
				LPBound:     b.LPBound,
				Exact:       sol.Cost,
				Certificate: b.FeasibleCost,
				Replicas:    sol.Replicas,
				Verdict:     verdict,
			})
		}
	}
	return out, nil
}

// exactSummary condenses a rung's exact-oracle records for the progress
// line: "all ok" or the count of failing cells.
func exactSummary(recs []exactCheck) string {
	failed := 0
	for _, r := range recs {
		if r.Verdict != verdictOK {
			failed++
		}
	}
	if failed == 0 {
		return "all ok"
	}
	return fmt.Sprintf("%d FAILED", failed)
}
