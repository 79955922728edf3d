package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/experiments"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// Result is a compiled scenario: the system, its resolved heuristic
// classes, the self-check warnings and a content fingerprint.
type Result struct {
	// Spec is the compiled spec (after validation, before any defaults
	// are folded in — re-compiling it reproduces the system exactly).
	Spec Spec
	// System is the topology + bucketed counts, ready for the experiments
	// sweep engine. System.Trace is nil unless the compile ran with
	// StreamOff: the counts were aggregated in one pass and no per-access
	// record exists.
	System *experiments.System
	// Classes are the resolved heuristic classes in spec order.
	Classes []*core.Class
	// Warnings lists self-check findings that do not invalidate the
	// scenario: classes that cannot attain the loosest QoS goal (their
	// curves truncate from the first point).
	Warnings []string
	// Fingerprint is the SHA-256 of the canonical serialized system (see
	// Fingerprint); two compiles of one spec always agree on it, whatever
	// their StreamingMode.
	Fingerprint string
	// Streamed reports that System.Trace is nil.
	Streamed bool
}

// StreamingMode selects whether CompileWith keeps the time-sorted trace.
type StreamingMode int

const (
	// StreamOn aggregates the generated accesses straight into counts and
	// keeps no trace. It is the zero value and the default.
	StreamOn StreamingMode = iota
	// StreamOff also keeps the time-sorted trace, for the callers that
	// replay individual accesses (the simulator).
	StreamOff
)

// CompileOptions tunes Compile behavior.
type CompileOptions struct {
	Streaming StreamingMode
}

// Compile generates a spec's system deterministically, counts only (see
// CompileWith).
func Compile(spec Spec) (*Result, error) {
	return CompileWith(spec, CompileOptions{})
}

// CompileWith generates a spec's system deterministically: it generates
// the topology and the workload's access stream from the spec's seeds,
// aggregates the stream into interval counts, resolves the heuristic
// classes and self-checks the whole system — finite latencies,
// workload/topology dimension agreement, and attainability of the loosest
// QoS goal (every listed class under RequireAllClasses, at least one
// otherwise; the rest surface as warnings).
//
// The counts are aggregated in one pass and System.Trace stays nil,
// unless opts.Streaming is StreamOff: then the trace is materialized,
// validated and bucketed, and kept. The counts are identical either way —
// both paths consume the same deterministic sequence — so the two
// compiles of one spec share their fingerprint.
func CompileWith(spec Spec, opts CompileOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	topo, err := spec.buildTopology()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: topology: %w", spec.Name, err)
	}

	st, err := spec.WorkloadStream()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: workload: %w", spec.Name, err)
	}
	// Self-check: dimension agreement. The generators already promise it,
	// but a scenario is the trust boundary for every downstream consumer,
	// so the compiled artifact re-verifies instead of assuming.
	if topo.N != st.Nodes() {
		return nil, fmt.Errorf("scenario %s: topology has %d nodes, workload has %d", spec.Name, topo.N, st.Nodes())
	}
	requests, objects, horizon := st.Requests(), st.Objects(), st.Duration()
	var (
		trace  *workload.Trace
		counts *workload.Counts
	)
	if opts.Streaming == StreamOff {
		trace, err = st.Materialize()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: workload: %w", spec.Name, err)
		}
		if err := trace.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		counts, err = trace.Bucket(spec.Delta())
	} else {
		counts, err = st.Counts(spec.Delta())
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	for i := range topo.Latency {
		for j, v := range topo.Latency[i] {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("scenario %s: latency[%d][%d] = %v is not finite and non-negative", spec.Name, i, j, v)
			}
		}
	}

	zeta := spec.Zeta
	if zeta == 0 {
		zeta = defaultZeta
	}
	sys := &experiments.System{
		Spec: experiments.Spec{
			Workload:  experiments.WorkloadKind(spec.Workload.Model),
			Nodes:     topo.N,
			Objects:   objects,
			Requests:  requests,
			Horizon:   horizon,
			Delta:     spec.Delta(),
			Seed:      spec.Seed,
			Tlat:      spec.Tlat(),
			QoSPoints: append([]float64(nil), spec.QoS...),
			Zeta:      zeta,
			ZipfS:     spec.Workload.ZipfS,
		},
		Topo:   topo,
		Trace:  trace,
		Counts: counts,
	}

	classes, err := spec.resolveClasses(topo)
	if err != nil {
		return nil, err
	}
	warnings, err := selfCheckAttainability(spec, sys, classes)
	if err != nil {
		return nil, err
	}
	fp, err := Fingerprint(sys)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: fingerprint: %w", spec.Name, err)
	}
	return &Result{
		Spec:        spec,
		System:      sys,
		Classes:     classes,
		Warnings:    warnings,
		Fingerprint: fp,
		Streamed:    trace == nil,
	}, nil
}

// buildTopology dispatches to the topology model's generator.
func (s *Spec) buildTopology() (*topology.Topology, error) {
	switch s.Topology.Model {
	case TopoRandomAS:
		return topology.Generate(topology.GenOptions{
			N: s.Nodes(), Seed: s.topoSeed(), Origin: s.Topology.Origin,
			MinHop: s.Topology.MinHopMillis, MaxHop: s.Topology.MaxHopMillis,
			ExtraLinks: s.Topology.ExtraLinks,
		})
	case TopoTransitStub:
		return topology.GenerateTransitStub(topology.TransitStubOptions{
			N: s.Nodes(), Seed: s.topoSeed(), Origin: s.Topology.Origin,
			Transit: s.Topology.Transit,
		})
	case TopoRemoteOffice:
		return topology.GenerateRemoteOffice(topology.RemoteOfficeOptions{
			N: s.Nodes(), Seed: s.topoSeed(), Origin: s.Topology.Origin,
			Clusters: s.Topology.Clusters,
		})
	case TopoTree:
		return topology.GenerateTree(topology.TreeOptions{
			N: s.Nodes(), Seed: s.topoSeed(), Origin: s.Topology.Origin,
			Shape: s.Topology.Shape, Arity: s.Topology.Arity,
			HopMin: s.Topology.MinHopMillis, HopMax: s.Topology.MaxHopMillis,
			DepthScale: s.Topology.DepthScale,
		})
	default:
		return nil, fmt.Errorf("unknown topology model %q", s.Topology.Model)
	}
}

// WorkloadStream opens the spec's workload as an unconsumed access
// stream. Both compile paths are built on it — the materialized path is
// WorkloadStream + Materialize — so the generated sequence is identical
// by construction whichever way the counts are produced. Writes are
// flagged during generation (the WriteFraction knob of the generator
// options), so no second trace copy exists on either path.
func (s *Spec) WorkloadStream() (*workload.Stream, error) {
	w := &s.Workload
	horizon := s.horizon()
	switch w.Model {
	case WorkWeb:
		return workload.StreamWeb(workload.WebOptions{
			Nodes: s.Nodes(), Objects: w.Objects, Requests: w.Requests,
			Duration: horizon, Seed: s.workSeed(), ZipfS: w.ZipfS, NodeSkew: w.NodeSkew,
			WriteFraction: w.WriteFraction,
		})
	case WorkGroup:
		return workload.StreamGroup(workload.GroupOptions{
			Nodes: s.Nodes(), Objects: w.Objects, Requests: w.Requests,
			Duration: horizon, Seed: s.workSeed(), MinPop: w.MinPop, MaxPop: w.MaxPop,
			WriteFraction: w.WriteFraction,
		})
	case WorkFlashCrowd:
		return workload.StreamFlashCrowd(workload.FlashCrowdOptions{
			Nodes: s.Nodes(), Objects: w.Objects, Requests: w.Requests,
			Duration: horizon, Seed: s.workSeed(), ZipfS: w.ZipfS, NodeSkew: w.NodeSkew,
			CrowdShare: w.CrowdShare, HotObjects: w.HotObjects,
			CrowdStart:    time.Duration(w.CrowdStartMillis) * time.Millisecond,
			CrowdWidth:    time.Duration(w.CrowdWidthMillis) * time.Millisecond,
			WriteFraction: w.WriteFraction,
		})
	case WorkDiurnal:
		return workload.StreamDiurnal(workload.DiurnalOptions{
			Nodes: s.Nodes(), Objects: w.Objects, Requests: w.Requests,
			Duration: horizon, Seed: s.workSeed(), ZipfS: w.ZipfS,
			Zones: s.Workload.Zones, NightFloor: w.NightFloor, ObjectDrift: w.ObjectDrift,
			Period:        time.Duration(w.PeriodMillis) * time.Millisecond,
			WriteFraction: w.WriteFraction,
		})
	default:
		return nil, fmt.Errorf("unknown workload model %q", w.Model)
	}
}

// resolveClasses materializes the spec's class list for the topology.
func (s *Spec) resolveClasses(topo *topology.Topology) ([]*core.Class, error) {
	names := s.ClassNames()
	classes := make([]*core.Class, len(names))
	for i, n := range names {
		c, err := core.ClassByName(topo, s.Tlat(), n)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		classes[i] = c
	}
	return classes, nil
}

// selfCheckAttainability verifies the loosest QoS goal against every
// listed class with the cheap reachability check (core.Instance.
// Attainable — no LP solve). The weakest listed classes are exactly the
// ones that fail here first.
func selfCheckAttainability(spec Spec, sys *experiments.System, classes []*core.Class) ([]string, error) {
	loosest := spec.QoS[0]
	for _, q := range spec.QoS[1:] {
		if q < loosest {
			loosest = q
		}
	}
	inst, err := sys.Instance(loosest)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	var warnings []string
	attainable := 0
	for _, c := range classes {
		if aerr := inst.Attainable(c); aerr != nil {
			if !errors.Is(aerr, core.ErrGoalUnattainable) {
				return nil, fmt.Errorf("scenario %s: %w", spec.Name, aerr)
			}
			if spec.RequireAllClasses {
				return nil, fmt.Errorf("scenario %s: class %s cannot attain the loosest goal %g: %w",
					spec.Name, c.Name, loosest, aerr)
			}
			warnings = append(warnings,
				fmt.Sprintf("class %s cannot attain the loosest goal %g; its curve is empty", c.Name, loosest))
			continue
		}
		attainable++
	}
	if attainable == 0 {
		return nil, fmt.Errorf("scenario %s: no listed class can attain the loosest goal %g: %w",
			spec.Name, loosest, core.ErrGoalUnattainable)
	}
	return warnings, nil
}

// fingerprintDoc is the canonical serialized form hashed by Fingerprint:
// the placement question and nothing else. Topology marshals
// deterministically (slices only, no maps); CountsDigest is the SHA-256 of
// the counts' canonical binary encoding; delta, tlat, QoS points and zeta
// are the parameters that change which question is asked. Provenance
// fields (workload kind, seeds, generator knobs, whether a trace was kept)
// stay out: the hash names the question, not the route that generated it.
type fingerprintDoc struct {
	DeltaNanos int64              `json:"deltaNanos"`
	Tlat       float64            `json:"tlat"`
	QoS        []float64          `json:"qos"`
	Zeta       float64            `json:"zeta"`
	Topology   *topology.Topology `json:"topology"`
	// Trace is always null. Systems that kept a trace used to hash it
	// here; emitting the null keeps the document, and so every counts-only
	// fingerprint (the ingest benchmark's pinned references among them),
	// unchanged.
	Trace        any    `json:"trace"`
	CountsDigest string `json:"countsDigest"`
}

// Fingerprint returns the SHA-256 content address of a system. Two
// compiles of the same scenario spec must produce the same fingerprint —
// the determinism contract of the scenario layer, enforced by tests over
// every registered scenario.
func Fingerprint(sys *experiments.System) (string, error) {
	if sys.Counts == nil {
		return "", errors.New("scenario: system has no counts")
	}
	h := sha256.New()
	if err := sys.Counts.EncodeBinary(h); err != nil {
		return "", err
	}
	raw, err := json.Marshal(fingerprintDoc{
		DeltaNanos:   sys.Spec.Delta.Nanoseconds(),
		Tlat:         sys.Spec.Tlat,
		QoS:          sys.Spec.QoSPoints,
		Zeta:         sys.Spec.Zeta,
		Topology:     sys.Topo,
		CountsDigest: hex.EncodeToString(h.Sum(nil)),
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
