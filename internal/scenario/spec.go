// Package scenario is the declarative experiment layer: named, seeded,
// validated specs that compose the low-level topology and workload
// generators into reproducible placement questions. A Spec is plain JSON
// (a file, a registry entry or a placementd job body); Compile
// deterministically generates it into an experiments.System, resolves
// its heuristic classes and self-checks the result, so every consumer —
// cmd tools, the stress runner, the placement service — asks questions
// through one schema instead of hard-wiring the paper's single instance.
package scenario

import (
	"bytes"
	"cmp"
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

// Topology model names.
const (
	// TopoRandomAS is the paper's AS-like preferential-attachment model
	// (topology.Generate); the 20-node seed-1 instance is the paper
	// topology stand-in.
	TopoRandomAS = "random-as"
	// TopoTransitStub is the two-level backbone+stub model
	// (topology.GenerateTransitStub).
	TopoTransitStub = "transit-stub"
	// TopoRemoteOffice is the clustered enterprise model
	// (topology.GenerateRemoteOffice).
	TopoRemoteOffice = "remote-office"
	// TopoTree is the rooted-tree family (topology.GenerateTree) whose
	// instances the exact oracle (internal/exact) can solve to optimality.
	TopoTree = "tree"
)

// Workload model names.
const (
	WorkWeb        = "web"
	WorkGroup      = "group"
	WorkFlashCrowd = "flash-crowd"
	WorkDiurnal    = "diurnal"
)

// TopologySpec names a topology model and its parameters. Zero-valued
// fields take the model's documented defaults; fields irrelevant to the
// chosen model must stay zero (the validator rejects cross-model knobs so
// a typoed spec fails loudly).
type TopologySpec struct {
	// Model is one of random-as, transit-stub, remote-office or tree.
	Model string `json:"model"`
	// Nodes is the total site count (default 20).
	Nodes int `json:"nodes,omitempty"`
	// Seed overrides the spec-level seed for topology generation
	// (0 = inherit Spec.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Origin is the headquarters node index (default 0).
	Origin int `json:"origin,omitempty"`
	// MinHopMillis/MaxHopMillis bound per-hop latencies of random-as.
	MinHopMillis float64 `json:"minHopMillis,omitempty"`
	MaxHopMillis float64 `json:"maxHopMillis,omitempty"`
	// ExtraLinks adds redundant links in random-as.
	ExtraLinks int `json:"extraLinks,omitempty"`
	// Transit is the backbone size of transit-stub (0 = ~sqrt(N)).
	Transit int `json:"transit,omitempty"`
	// Clusters is the office-cluster count of remote-office (0 = N/5).
	Clusters int `json:"clusters,omitempty"`
	// Shape selects the tree family's wiring: kary (default), random or
	// caterpillar.
	Shape string `json:"shape,omitempty"`
	// Arity is the branching factor of the kary tree shape (default 2).
	Arity int `json:"arity,omitempty"`
	// DepthScale multiplies hop latencies per level of depth in the tree
	// model (default 0.7: edges shorten toward the leaves). The tree model
	// reuses MinHopMillis/MaxHopMillis for its root-level hop range.
	DepthScale float64 `json:"depthScale,omitempty"`
}

// WorkloadSpec names a workload model and its parameters. As with
// TopologySpec, zero means the model default and cross-model knobs are
// rejected.
type WorkloadSpec struct {
	// Model is one of web, group, flash-crowd or diurnal.
	Model string `json:"model"`
	// Objects and Requests size the trace.
	Objects  int `json:"objects,omitempty"`
	Requests int `json:"requests,omitempty"`
	// HorizonMillis is the trace duration (default 24h).
	HorizonMillis int64 `json:"horizonMillis,omitempty"`
	// Seed overrides the spec-level seed for trace generation
	// (0 = inherit Spec.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// ZipfS is the object-popularity exponent (web, flash-crowd,
	// diurnal).
	ZipfS float64 `json:"zipfS,omitempty"`
	// NodeSkew is the per-site activity exponent (web, flash-crowd).
	NodeSkew float64 `json:"nodeSkew,omitempty"`
	// WriteFraction flags that fraction of accesses as writes during
	// generation (the generators' WriteFraction knob), for the
	// update-cost extension.
	WriteFraction float64 `json:"writeFraction,omitempty"`
	// MinPop/MaxPop are the group model's popularity range.
	MinPop float64 `json:"minPop,omitempty"`
	MaxPop float64 `json:"maxPop,omitempty"`
	// CrowdShare, CrowdStartMillis, CrowdWidthMillis and HotObjects
	// shape the flash-crowd burst.
	CrowdShare       float64 `json:"crowdShare,omitempty"`
	CrowdStartMillis int64   `json:"crowdStartMillis,omitempty"`
	CrowdWidthMillis int64   `json:"crowdWidthMillis,omitempty"`
	HotObjects       int     `json:"hotObjects,omitempty"`
	// Zones, PeriodMillis, NightFloor and ObjectDrift shape the diurnal
	// model.
	Zones        int     `json:"zones,omitempty"`
	PeriodMillis int64   `json:"periodMillis,omitempty"`
	NightFloor   float64 `json:"nightFloor,omitempty"`
	ObjectDrift  bool    `json:"objectDrift,omitempty"`
}

// Spec is one declarative experiment scenario.
type Spec struct {
	// Name identifies the scenario (registry key, report label).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Seed is the master seed; topology and workload inherit it unless
	// they carry their own.
	Seed uint64 `json:"seed,omitempty"`
	// Topology and Workload select and parameterize the generators.
	Topology TopologySpec `json:"topology"`
	Workload WorkloadSpec `json:"workload"`
	// TlatMillis is the latency threshold (default 150, the paper's).
	TlatMillis float64 `json:"tlatMillis,omitempty"`
	// DeltaMillis is the evaluation interval (default 1h).
	DeltaMillis int64 `json:"deltaMillis,omitempty"`
	// QoS are the goal levels to sweep, fractions in (0, 1].
	QoS []float64 `json:"qos"`
	// Classes are the heuristic classes to bound (core.ClassNames);
	// empty means the paper's Figure 1 set.
	Classes []string `json:"classes,omitempty"`
	// Zeta is the node-opening cost of the deployment methodology
	// (0 = the paper's 10000).
	Zeta float64 `json:"zeta,omitempty"`
	// RequireAllClasses makes the compile self-check demand that every
	// listed class — including the weakest — can attain the loosest QoS
	// goal. Without it only one attainable class is required and the
	// rest become compile warnings (the paper's own caching curves
	// truncate, so its scenarios cannot be strict).
	RequireAllClasses bool `json:"requireAllClasses,omitempty"`
}

// Figure1Classes is the class list an empty Classes field resolves to:
// the paper's Figure 1 set.
func Figure1Classes() []string {
	return []string{
		"general",
		"storage-constrained",
		"replica-constrained",
		"decentral-local-routing",
		"caching",
		"coop-caching",
	}
}

// Defaults used when spec fields are zero.
const (
	defaultNodes   = 20
	defaultTlat    = 150
	defaultDelta   = time.Hour
	defaultZeta    = 10000
	defaultHorizon = 24 * time.Hour
)

// Tlat returns the effective latency threshold in milliseconds.
func (s *Spec) Tlat() float64 {
	if s.TlatMillis > 0 {
		return s.TlatMillis
	}
	return defaultTlat
}

// Delta returns the effective evaluation interval.
func (s *Spec) Delta() time.Duration {
	if s.DeltaMillis > 0 {
		return time.Duration(s.DeltaMillis) * time.Millisecond
	}
	return defaultDelta
}

// horizon returns the effective trace duration.
func (s *Spec) horizon() time.Duration {
	if s.Workload.HorizonMillis > 0 {
		return time.Duration(s.Workload.HorizonMillis) * time.Millisecond
	}
	return defaultHorizon
}

// Nodes returns the effective site count.
func (s *Spec) Nodes() int {
	if s.Topology.Nodes > 0 {
		return s.Topology.Nodes
	}
	return defaultNodes
}

// ClassNames returns the effective class list (the Figure 1 set when the
// spec leaves Classes empty).
func (s *Spec) ClassNames() []string {
	if len(s.Classes) > 0 {
		return append([]string(nil), s.Classes...)
	}
	return Figure1Classes()
}

// topoSeed and workSeed resolve the per-generator seeds.
func (s *Spec) topoSeed() uint64 {
	if s.Topology.Seed != 0 {
		return s.Topology.Seed
	}
	return s.Seed
}

func (s *Spec) workSeed() uint64 {
	if s.Workload.Seed != 0 {
		return s.Workload.Seed
	}
	return s.Seed
}

// Validate checks the spec structurally, without generating anything.
// Every rejection names the offending field.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: spec needs a name")
	}
	if err := s.validateTopology(); err != nil {
		return err
	}
	if err := s.validateWorkload(); err != nil {
		return err
	}
	if err := s.validateSize(); err != nil {
		return err
	}
	if s.TlatMillis < 0 || math.IsNaN(s.TlatMillis) || math.IsInf(s.TlatMillis, 0) {
		return fmt.Errorf("scenario %s: tlatMillis %v must be a finite non-negative number", s.Name, s.TlatMillis)
	}
	if s.DeltaMillis < 0 {
		return fmt.Errorf("scenario %s: deltaMillis must not be negative", s.Name)
	}
	if err := experiments.ValidateQoS(s.QoS); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Zeta < 0 || math.IsNaN(s.Zeta) || math.IsInf(s.Zeta, 0) {
		return fmt.Errorf("scenario %s: zeta %v must be a finite non-negative number", s.Name, s.Zeta)
	}
	known := make(map[string]bool)
	for _, n := range core.ClassNames() {
		known[n] = true
	}
	seen := make(map[string]bool)
	for _, c := range s.Classes {
		if !known[c] {
			return fmt.Errorf("scenario %s: unknown class %q; available: %v", s.Name, c, core.ClassNames())
		}
		if seen[c] {
			return fmt.Errorf("scenario %s: duplicate class %q", s.Name, c)
		}
		seen[c] = true
	}
	return nil
}

func (s *Spec) validateTopology() error {
	t := &s.Topology
	if t.Nodes < 0 {
		return fmt.Errorf("scenario %s: topology.nodes must not be negative", s.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"minHopMillis", t.MinHopMillis}, {"maxHopMillis", t.MaxHopMillis}, {"depthScale", t.DepthScale}} {
		if v := f.v; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario %s: topology.%s %v must be a finite non-negative number", s.Name, f.name, v)
		}
	}
	if t.MaxHopMillis > 0 && t.MinHopMillis > t.MaxHopMillis {
		return fmt.Errorf("scenario %s: topology.minHopMillis %g exceeds maxHopMillis %g", s.Name, t.MinHopMillis, t.MaxHopMillis)
	}
	if t.ExtraLinks < 0 || t.Transit < 0 || t.Clusters < 0 || t.Origin < 0 || t.Arity < 0 {
		return fmt.Errorf("scenario %s: topology counts must not be negative", s.Name)
	}
	tree := t.Shape != "" || t.Arity != 0 || t.DepthScale != 0
	switch t.Model {
	case TopoRandomAS:
		if t.Transit != 0 || t.Clusters != 0 || tree {
			return fmt.Errorf("scenario %s: transit/clusters/tree knobs are not %s parameters", s.Name, t.Model)
		}
	case TopoTransitStub:
		if t.Clusters != 0 || t.ExtraLinks != 0 || tree {
			return fmt.Errorf("scenario %s: clusters/extraLinks/tree knobs are not %s parameters", s.Name, t.Model)
		}
	case TopoRemoteOffice:
		if t.Transit != 0 || t.ExtraLinks != 0 || tree {
			return fmt.Errorf("scenario %s: transit/extraLinks/tree knobs are not %s parameters", s.Name, t.Model)
		}
	case TopoTree:
		if t.Transit != 0 || t.Clusters != 0 || t.ExtraLinks != 0 {
			return fmt.Errorf("scenario %s: transit/clusters/extraLinks are not %s parameters", s.Name, t.Model)
		}
		switch t.Shape {
		case "", topology.TreeKAry, topology.TreeRandom, topology.TreeCaterpillar:
		default:
			return fmt.Errorf("scenario %s: unknown tree shape %q (want kary, random or caterpillar)", s.Name, t.Shape)
		}
	case "":
		return fmt.Errorf("scenario %s: topology.model is required (random-as, transit-stub, remote-office or tree)", s.Name)
	default:
		return fmt.Errorf("scenario %s: unknown topology model %q (want random-as, transit-stub, remote-office or tree)", s.Name, t.Model)
	}
	return nil
}

func (s *Spec) validateWorkload() error {
	w := &s.Workload
	if w.Objects < 0 || w.Requests < 0 || w.HorizonMillis < 0 || w.HotObjects < 0 || w.Zones < 0 || w.PeriodMillis < 0 {
		return fmt.Errorf("scenario %s: workload counts must not be negative", s.Name)
	}
	// The cap is input validation, not a storage limit. A compile draws
	// once per request and specs arrive in untrusted job bodies, so the
	// volume bounds the work one spec can demand; math.MaxInt32 is over
	// 130 times the paper's largest trace (16M requests).
	if w.Requests > math.MaxInt32 {
		return fmt.Errorf("scenario %s: workload.requests %d exceeds the supported maximum %d", s.Name, w.Requests, math.MaxInt32)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"zipfS", w.ZipfS}, {"nodeSkew", w.NodeSkew}, {"writeFraction", w.WriteFraction},
		{"minPop", w.MinPop}, {"maxPop", w.MaxPop}, {"crowdShare", w.CrowdShare},
		{"nightFloor", w.NightFloor},
	} {
		if v := f.v; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario %s: workload.%s %v must be a finite non-negative number", s.Name, f.name, v)
		}
	}
	if w.WriteFraction > 1 {
		return fmt.Errorf("scenario %s: workload.writeFraction %g must be at most 1", s.Name, w.WriteFraction)
	}
	if w.CrowdStartMillis < 0 || w.CrowdWidthMillis < 0 {
		return fmt.Errorf("scenario %s: crowd window must not be negative", s.Name)
	}
	crowd := w.CrowdShare != 0 || w.CrowdStartMillis != 0 || w.CrowdWidthMillis != 0 || w.HotObjects != 0
	diurnal := w.Zones != 0 || w.PeriodMillis != 0 || w.NightFloor != 0 || w.ObjectDrift
	group := w.MinPop != 0 || w.MaxPop != 0
	switch w.Model {
	case WorkWeb:
		if crowd || diurnal || group {
			return fmt.Errorf("scenario %s: crowd/diurnal/group knobs are not %s parameters", s.Name, w.Model)
		}
	case WorkGroup:
		if crowd || diurnal || w.ZipfS != 0 || w.NodeSkew != 0 {
			return fmt.Errorf("scenario %s: crowd/diurnal/zipf knobs are not %s parameters", s.Name, w.Model)
		}
	case WorkFlashCrowd:
		if diurnal || group {
			return fmt.Errorf("scenario %s: diurnal/group knobs are not %s parameters", s.Name, w.Model)
		}
	case WorkDiurnal:
		if crowd || group || w.NodeSkew != 0 {
			return fmt.Errorf("scenario %s: crowd/group/nodeSkew knobs are not %s parameters", s.Name, w.Model)
		}
	case "":
		return fmt.Errorf("scenario %s: workload.model is required (web, group, flash-crowd or diurnal)", s.Name)
	default:
		return fmt.Errorf("scenario %s: unknown workload model %q (want web, group, flash-crowd or diurnal)", s.Name, w.Model)
	}
	return nil
}

// validateSize applies the size caps of topology.MaxNodes and
// workload.MaxCells to the spec's effective sizes, model defaults
// included. Compiling allocates the latency matrix and the counts whole,
// so an oversized spec from a job body must fail here, before anything
// is generated. Horizon and interval are checked against the range of a
// Duration before they are converted.
func (s *Spec) validateSize() error {
	if n := s.Nodes(); n > topology.MaxNodes {
		return fmt.Errorf("scenario %s: topology.nodes %d exceeds the supported maximum %d", s.Name, n, topology.MaxNodes)
	}
	const maxMillis = math.MaxInt64 / int64(time.Millisecond)
	if s.Workload.HorizonMillis > maxMillis || s.DeltaMillis > maxMillis {
		return fmt.Errorf("scenario %s: horizonMillis and deltaMillis must be at most %d", s.Name, maxMillis)
	}
	objects := cmp.Or(s.Workload.Objects, workload.DefaultObjects)
	if _, err := workload.Intervals(s.Nodes(), objects, s.horizon(), s.Delta()); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// Parse decodes a JSON spec strictly (unknown fields are rejected so a
// typoed knob fails loudly) and validates it.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	// Trailing garbage after the spec object is an error, not silence.
	if dec.More() {
		return Spec{}, errors.New("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// WithNodes returns a copy of the spec rescaled to n sites: the request
// volume scales proportionally (so per-site load stays comparable along a
// ladder) and explicitly-sized structural knobs (transit, clusters, zones)
// scale with it; derived defaults re-derive from the new size on their
// own. The scenario name is preserved — ladder reports label sizes
// separately.
func (s Spec) WithNodes(n int) Spec {
	base := s.Nodes()
	out := s
	out.Topology.Nodes = n
	if base > 0 && n != base {
		scale := func(v int, min int) int {
			if v == 0 {
				return 0
			}
			sv := int(math.Round(float64(v) * float64(n) / float64(base)))
			if sv < min {
				sv = min
			}
			return sv
		}
		if s.Workload.Requests > 0 {
			out.Workload.Requests = scale(s.Workload.Requests, 1)
		}
		out.Topology.Transit = scale(s.Topology.Transit, 2)
		out.Topology.Clusters = scale(s.Topology.Clusters, 1)
		out.Workload.Zones = scale(s.Workload.Zones, 1)
	}
	if out.Workload.Zones > n {
		out.Workload.Zones = n
	}
	if out.Topology.Transit > n {
		out.Topology.Transit = n
	}
	if out.Topology.Clusters > n-1 {
		out.Topology.Clusters = n - 1
	}
	return out
}
