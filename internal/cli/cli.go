// Package cli holds small helpers shared by the command-line binaries:
// signal-driven cancellation, the common progress writer, the solver
// configuration flags and the opt-in pprof listener.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux
	"os"
	"os/signal"
	"syscall"

	"wideplace/internal/experiments"
	"wideplace/internal/lp"
	"wideplace/internal/scenario"
)

// ScenarioOptions adjusts a loaded scenario spec before compilation.
type ScenarioOptions struct {
	// QoS overrides the spec's QoS goal points (nil keeps the spec's).
	QoS []float64
	// Nodes rescales the spec to this node count with Spec.WithNodes
	// (0 keeps the spec's size).
	Nodes int
	// Requests overrides the workload's request volume exactly (0 keeps
	// the spec's). Applied after the Nodes rescale, so an explicit volume
	// wins over the proportional one.
	Requests int
	// Streaming is scenario.StreamOff for the tools that replay the
	// trace in the simulator; the default compiles counts only.
	Streaming scenario.StreamingMode
}

// LoadScenario resolves the system flags of the bound-computing binaries
// to a scenario spec: the -scenario reference (a registered name or a spec
// file) when set, else the -workload/-scale paper preset.
func LoadScenario(ref, kind, scale string) (scenario.Spec, error) {
	if ref != "" {
		return scenario.Load(ref)
	}
	return scenario.Preset(kind, scale)
}

// ResolveScenario applies the overrides to a loaded scenario spec and
// compiles it. Every binary compiles its system through here so the
// behavior — and the warning wording, "<tool>: scenario <name>:
// <warning>" — stays identical across tools. Warnings go to warnw; pass
// nil to discard them.
func ResolveScenario(scn scenario.Spec, tool string, opts ScenarioOptions, warnw io.Writer) (*scenario.Result, error) {
	if opts.QoS != nil {
		scn.QoS = opts.QoS
	}
	if opts.Nodes > 0 {
		scn = scn.WithNodes(opts.Nodes)
	}
	if opts.Requests != 0 {
		scn.Workload.Requests = opts.Requests // the compile rejects negatives
	}
	res, err := scenario.CompileWith(scn, scenario.CompileOptions{Streaming: opts.Streaming})
	if err != nil {
		return nil, err
	}
	if warnw != nil {
		name := res.Spec.Name
		if opts.Nodes > 0 {
			name = fmt.Sprintf("%s@%d", name, opts.Nodes)
		}
		for _, w := range res.Warnings {
			fmt.Fprintf(warnw, "%s: scenario %s: %s\n", tool, name, w)
		}
	}
	return res, nil
}

// SignalContext returns a context that is canceled on SIGINT or SIGTERM.
// The first signal cancels the context so in-flight work can drain (long
// solves observe it at the next simplex poll); a second signal kills the
// process through the default handler because stop() restores it only on
// return. Callers must call the returned stop function.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Progress returns an experiments progress callback writing one line per
// event to w, or nil when verbose is false (discarding all events).
func Progress(verbose bool, w io.Writer) experiments.Progress {
	if !verbose {
		return nil
	}
	return func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// LPFlags holds the solver-configuration flag shared by every
// bound-computing binary, -presolve. It only changes solver effort, never
// bounds, so every binary exposes it with identical semantics.
type LPFlags struct {
	presolve *bool
}

// RegisterLPFlags registers -presolve on fs.
func RegisterLPFlags(fs *flag.FlagSet) *LPFlags {
	return &LPFlags{
		presolve: fs.Bool("presolve", true, "reduce each LP before solving (false = solve the full model; bounds are identical either way)"),
	}
}

// Presolve returns the parsed presolve mode.
func (f *LPFlags) Presolve() lp.PresolveMode {
	if !*f.presolve {
		return lp.PresolveOff
	}
	return lp.PresolveOn
}

// ServePprof starts net/http/pprof on its own listener when addr is
// non-empty. Profiling stays opt-in and separate from any public address:
// the handlers live on http.DefaultServeMux, which none of the binaries
// otherwise serve. Errors are reported through logf; the listener runs
// until the process exits.
func ServePprof(addr string, logf func(format string, args ...interface{})) {
	if addr == "" {
		return
	}
	go func() {
		logf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			logf("pprof server: %v", err)
		}
	}()
}
