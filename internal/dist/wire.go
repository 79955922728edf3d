// Package dist implements the distributed sweep subsystem: a coordinator
// that splits a placement job into column shards — one shard per (class,
// ascending-QoS-grid) warm chain, the dispatch unit the sweep engine
// already uses — and farms them to its workers, backed by an optional
// persistent content-addressed result store so a completed column
// survives coordinator restarts and is never solved twice anywhere in the
// fleet. A coordinator's workers are either registered processes reached
// over HTTP or one in-process worker (a standalone placementd).
//
// Determinism is the load-bearing property: a column's points depend
// only on the materialized system and the class, never on which process
// solves it or on the other columns, so the coordinator can reassemble
// remote results into the exact figure a single process would have
// produced (byte-identical TSV, asserted end to end).
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// Statement states a system in exactly one of the three forms the job API
// accepts: a preset spec, a declarative scenario, or an explicit topology
// + trace with its interval, latency threshold and QoS grid. Building is
// deterministic, so the statement is all a remote worker needs to
// materialize the system the coordinator built.
type Statement struct {
	// Spec selects a generated preset system.
	Spec *experiments.Spec `json:"spec,omitempty"`
	// Scenario states the system declaratively.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Topology/Trace/DeltaMillis/Tlat/QoS state an explicit system.
	Topology    *topology.Topology `json:"topology,omitempty"`
	Trace       *workload.Trace    `json:"trace,omitempty"`
	DeltaMillis int64              `json:"deltaMillis,omitempty"`
	Tlat        float64            `json:"tlat,omitempty"`
	QoS         []float64          `json:"qos,omitempty"`
}

// Build materializes the stated system. Exactly one form must be set;
// callers state systems from validated job plans, so a statement with no
// form is an internal error, not user input.
func (st *Statement) Build() (*experiments.System, error) {
	switch {
	case st.Spec != nil:
		return experiments.Build(*st.Spec)
	case st.Scenario != nil:
		res, err := scenario.Compile(*st.Scenario)
		if err != nil {
			return nil, err
		}
		return res.System, nil
	case st.Topology != nil && st.Trace != nil:
		return experiments.NewSystem(st.Topology, st.Trace,
			time.Duration(st.DeltaMillis)*time.Millisecond, st.Tlat, st.QoS)
	default:
		return nil, fmt.Errorf("dist: statement names no system (want spec, scenario or topology+trace)")
	}
}

// ShardJob is one column shard on the wire: the full system statement
// plus the class whose column the worker must solve. A remote worker
// rebuilds the system from the statement and verifies the rebuild
// against Fingerprint before solving, so a coordinator/worker version
// drift that changes the materialized system fails loudly instead of
// silently contaminating the store.
type ShardJob struct {
	Statement

	// Class names the heuristic class whose column this shard solves
	// (resolvable by core.ClassByName on the built system).
	Class string `json:"class"`
	// Fingerprint is the scenario.Fingerprint of the coordinator's build
	// of the system; the worker's rebuild must reproduce it.
	Fingerprint string `json:"fingerprint"`
	// SolveTimeoutMillis caps each LP solve's wall clock (0 = worker
	// default).
	SolveTimeoutMillis int64 `json:"solveTimeoutMillis,omitempty"`

	// sys is the coordinator's own build of the statement. It never
	// crosses the wire: an in-process worker solves on it directly,
	// without rebuilding or fingerprinting the system again.
	sys *experiments.System
}

// NewShard returns the shard template of one job: sys is the caller's
// build of st, fingerprinted here once for every column; set Class per
// column. timeout is the job's effective per-solve cap.
func NewShard(st Statement, sys *experiments.System, timeout time.Duration) (ShardJob, error) {
	fp, err := scenario.Fingerprint(sys)
	if err != nil {
		return ShardJob{}, err
	}
	return ShardJob{Statement: st, Fingerprint: fp, SolveTimeoutMillis: timeout.Milliseconds(), sys: sys}, nil
}

// ColumnResult is the worker's reply: the solved column in ascending QoS
// input order, one point per grid value. Point fields are all exported
// floats/ints/strings, and encoding/json round-trips float64 exactly, so
// the points reassemble bit-identically on the coordinator.
type ColumnResult struct {
	Class  string              `json:"class"`
	Points []experiments.Point `json:"points"`
}

// Solve runs the shard locally: resolve the class and run the
// single-class warm-chained sweep on the shard's system — the one it
// carries, or else a rebuild from the statement whose fingerprint must
// match. Both kinds of worker go through here, so the solved column is
// identical wherever it runs.
func (sh *ShardJob) Solve(opts experiments.Options) ([]experiments.Point, error) {
	sys := sh.sys
	if sys == nil {
		var err error
		if sys, err = sh.Build(); err != nil {
			return nil, err
		}
		fp, err := scenario.Fingerprint(sys)
		if err != nil {
			return nil, err
		}
		if sh.Fingerprint != "" && fp != sh.Fingerprint {
			return nil, fmt.Errorf("dist: rebuilt system fingerprint %s does not match shard %s (coordinator/worker drift?)", fp, sh.Fingerprint)
		}
	}
	class, err := core.ClassByName(sys.Topo, sys.Spec.Tlat, sh.Class)
	if err != nil {
		return nil, err
	}
	if sh.SolveTimeoutMillis > 0 {
		opts.SolveTimeout = time.Duration(sh.SolveTimeoutMillis) * time.Millisecond
	}
	// One class = one warm-chained column; Parallel is irrelevant.
	fig, err := experiments.Sweep(sys, []*core.Class{class}, "", opts, nil)
	if err != nil {
		return nil, err
	}
	return fig.Series[0].Points, nil
}

// ColumnKey derives the store key of one column: the SHA-256 of the
// system fingerprint and the class name. The fingerprint already covers
// the QoS grid, interval, latency threshold and full workload content, so
// fingerprint + class pins the column's bounds exactly. Solver
// configuration is deliberately excluded: bounds are identical across
// solver settings, and the fleet is assumed homogeneous for the
// effort-counter footers.
func ColumnKey(fingerprint, class string) string {
	sum := sha256.Sum256([]byte(fingerprint + "\x00" + class))
	return "sha256:" + hex.EncodeToString(sum[:])
}
