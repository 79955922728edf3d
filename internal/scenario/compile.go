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

// Result is a compiled scenario: the materialized system, its resolved
// heuristic classes, the self-check warnings and a content fingerprint.
type Result struct {
	// Spec is the compiled spec (after validation, before any defaults
	// are folded in — re-compiling it reproduces the system exactly).
	Spec Spec
	// System is the materialized topology + trace + bucketed counts,
	// ready for the experiments sweep engine. When Streamed is set,
	// System.Trace is nil: the counts were aggregated in one pass and no
	// per-access record exists.
	System *experiments.System
	// Classes are the resolved heuristic classes in spec order.
	Classes []*core.Class
	// Warnings lists self-check findings that do not invalidate the
	// scenario: classes that cannot attain the loosest QoS goal (their
	// curves truncate from the first point).
	Warnings []string
	// Fingerprint is the SHA-256 of the canonical serialized system (see
	// Fingerprint); two compiles of one spec always agree on it.
	Fingerprint string
	// Streamed reports that the workload was aggregated without
	// materializing the trace.
	Streamed bool
}

// StreamingMode selects how CompileWith builds the workload counts.
type StreamingMode int

const (
	// StreamAuto streams when the request volume reaches
	// StreamingThreshold and materializes below it.
	StreamAuto StreamingMode = iota
	// StreamOff always materializes the trace.
	StreamOff
	// StreamOn always streams, whatever the size.
	StreamOn
)

// StreamingThreshold is the request volume at which StreamAuto switches
// from materializing the trace to one-pass streaming aggregation. Below
// it the raw trace is cheap (a 1M-request trace is ~32 MB) and keeping it
// enables the simulator and trace export; at the paper's full 16M-request
// GROUP volume the trace alone would be ~512 MB plus sort space, so the
// compile streams straight into Counts.
const StreamingThreshold = 4_000_000

// CompileOptions tunes Compile behavior.
type CompileOptions struct {
	Streaming StreamingMode
}

// Compile materializes a spec deterministically with automatic streaming
// (see CompileWith).
func Compile(spec Spec) (*Result, error) {
	return CompileWith(spec, CompileOptions{})
}

// CompileWith materializes a spec deterministically: it generates the
// topology and trace from the spec's seeds, buckets the trace, resolves
// the heuristic classes and self-checks the whole system — finite
// latencies, trace/topology dimension agreement, and attainability of the
// loosest QoS goal (every listed class under RequireAllClasses, at least
// one otherwise; the rest surface as warnings).
//
// Large workloads (StreamAuto past StreamingThreshold, or StreamOn)
// stream: the generator's access sequence is aggregated into Counts in
// one pass and System.Trace stays nil. The counts are identical to the
// materialize-then-Bucket path — the streaming aggregator consumes the
// same deterministic sequence — so every counts-based consumer sees the
// same system either way.
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
	stream := opts.Streaming == StreamOn ||
		(opts.Streaming == StreamAuto && requests >= StreamingThreshold)
	var (
		trace  *workload.Trace
		counts *workload.Counts
	)
	if stream {
		counts, err = st.Counts(spec.Delta())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	} else {
		trace, err = st.Materialize()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: workload: %w", spec.Name, err)
		}
		if err := trace.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		counts, err = trace.Bucket(spec.Delta())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
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
		Streamed:    stream,
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
	horizon := time.Duration(w.HorizonMillis) * time.Millisecond
	if horizon == 0 {
		horizon = defaultHorizon
	}
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

// buildTrace materializes the workload stream into a sorted trace.
func (s *Spec) buildTrace() (*workload.Trace, error) {
	st, err := s.WorkloadStream()
	if err != nil {
		return nil, err
	}
	return st.Materialize()
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
// the materialized placement question and nothing else. Topology and
// Trace marshal deterministically (slices only, no maps); delta, tlat,
// QoS points and zeta are the parameters that change which question is
// asked. Provenance fields (workload kind, seeds, generator knobs) stay
// out so two routes to the same system — a preset and its scenario
// translation — fingerprint identically.
//
// Streamed systems have no Trace. They hash CountsDigest — the SHA-256 of
// the counts' canonical binary encoding — instead, leaving Trace null, so
// a streamed document can never collide with a materialized one of the
// same topology (the field sets differ).
type fingerprintDoc struct {
	DeltaNanos   int64              `json:"deltaNanos"`
	Tlat         float64            `json:"tlat"`
	QoS          []float64          `json:"qos"`
	Zeta         float64            `json:"zeta"`
	Topology     *topology.Topology `json:"topology"`
	Trace        *workload.Trace    `json:"trace"`
	CountsDigest string             `json:"countsDigest,omitempty"`
}

// Fingerprint returns the SHA-256 content address of a materialized
// system. Two compiles of the same scenario spec must produce the same
// fingerprint — the determinism contract of the scenario layer, enforced
// by tests over every registered scenario.
func Fingerprint(sys *experiments.System) (string, error) {
	doc := fingerprintDoc{
		DeltaNanos: sys.Spec.Delta.Nanoseconds(),
		Tlat:       sys.Spec.Tlat,
		QoS:        sys.Spec.QoSPoints,
		Zeta:       sys.Spec.Zeta,
		Topology:   sys.Topo,
		Trace:      sys.Trace,
	}
	if sys.Trace == nil {
		if sys.Counts == nil {
			return "", errors.New("scenario: system has neither trace nor counts")
		}
		h := sha256.New()
		if err := sys.Counts.EncodeBinary(h); err != nil {
			return "", err
		}
		doc.CountsDigest = hex.EncodeToString(h.Sum(nil))
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
