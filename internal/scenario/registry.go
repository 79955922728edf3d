package scenario

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"wideplace/internal/experiments"
	"wideplace/internal/topology"
)

// The registry maps scenario names to specs. Builtins cover the paper's
// 20-node instance (both workloads) and one representative of every new
// topology/workload family; Register adds more at runtime (tests, tools).
var (
	regMu    sync.RWMutex
	registry = make(map[string]Spec)
)

// Register adds a spec to the registry under its name. It validates first
// and refuses to overwrite, so two packages cannot silently fight over a
// name.
func Register(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[spec.Name]; dup {
		return fmt.Errorf("scenario: %q is already registered", spec.Name)
	}
	registry[spec.Name] = spec
	return nil
}

// Get looks a scenario up by name.
func Get(name string) (Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: %q is not registered; known scenarios: %v", name, namesLocked())
	}
	return s, nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered spec, sorted by name.
func Specs() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Spec, 0, len(registry))
	for _, n := range namesLocked() {
		out = append(out, registry[n])
	}
	return out
}

// Load resolves a scenario reference: a registered name first, otherwise a
// path to a JSON spec file. This is the single entry point behind every
// -scenario command-line flag.
func Load(ref string) (Spec, error) {
	regMu.RLock()
	s, ok := registry[ref]
	regMu.RUnlock()
	if ok {
		return s, nil
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		if os.IsNotExist(err) {
			return Spec{}, fmt.Errorf("scenario: %q is neither a registered scenario (%v) nor a readable spec file", ref, Names())
		}
		return Spec{}, fmt.Errorf("scenario: read %s: %w", ref, err)
	}
	return Parse(data)
}

// FromPreset converts an experiments.NewSpec preset into a scenario spec.
// Compiling the result reproduces experiments.Build on the same preset
// bit for bit (same generators, same seeds, same bucketing) — the paper's
// hard-coded instance expressed in the declarative schema. The returned
// spec is named "<kind>-<scale>" and is not registered.
func FromPreset(kind experiments.WorkloadKind, scale experiments.Scale) (Spec, error) {
	es, err := experiments.NewSpec(kind, scale)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Name:        fmt.Sprintf("%s-%s", kind, scale),
		Description: fmt.Sprintf("paper %s workload at the %s preset scale", kind, scale),
		Seed:        es.Seed,
		Topology: TopologySpec{
			Model: TopoRandomAS,
			Nodes: es.Nodes,
		},
		Workload: WorkloadSpec{
			Model:         string(kind),
			Objects:       es.Objects,
			Requests:      es.Requests,
			HorizonMillis: es.Horizon.Milliseconds(),
		},
		TlatMillis:  es.Tlat,
		DeltaMillis: es.Delta.Milliseconds(),
		QoS:         append([]float64(nil), es.QoSPoints...),
		Zeta:        es.Zeta,
	}
	// GenerateGroup takes no Zipf exponent, so the preset's ZipfS only
	// travels for WEB (the validator rejects it on group specs).
	if kind == experiments.WEB {
		s.Workload.ZipfS = es.ZipfS
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func mustRegister(spec Spec) {
	if err := Register(spec); err != nil {
		panic(err)
	}
}

func mustPreset(name, desc string, kind experiments.WorkloadKind, nodes int) Spec {
	s, err := FromPreset(kind, experiments.ScaleSmall)
	if err != nil {
		panic(err)
	}
	s = s.WithNodes(nodes)
	s.Name = name
	s.Description = desc
	return s
}

func init() {
	// The paper's 20-node instance, both workloads. Derived from the
	// small preset so the full Figure-1 sweep of either stays CI-sized,
	// rescaled to the paper's 20 sites.
	mustRegister(mustPreset("paper20-web",
		"paper 20-node AS topology, WEB workload (Zipf popularity, uneven sites)",
		experiments.WEB, 20))
	mustRegister(mustPreset("paper20-group",
		"paper 20-node AS topology, GROUP workload (uniform popularity, even sites)",
		experiments.GROUP, 20))
	// The paper's GROUP instance at its published volume: 16M requests
	// over 24 hours (Sec. 6). Past the streaming threshold, so compiling
	// it aggregates counts in one pass and never materializes the trace.
	mustRegister(Spec{
		Name:        "paper20-group-full",
		Description: "paper 20-node GROUP workload at the full published 16M-request volume (streams)",
		Seed:        1,
		Topology:    TopologySpec{Model: TopoRandomAS, Nodes: 20},
		Workload: WorkloadSpec{
			Model: WorkGroup, Objects: 1000, Requests: 16_000_000,
			HorizonMillis: (24 * time.Hour).Milliseconds(),
		},
		QoS:  []float64{0.95, 0.99, 0.999, 0.9999, 0.99999},
		Zeta: 10000,
	})

	// One representative per new family. The structural families pin the
	// classes that are meaningful at scale and demand strict feasibility;
	// the workload families keep the Figure-1 default set and tolerate
	// truncating caching curves, exactly like the paper's own figures.
	mustRegister(Spec{
		Name:        "transit-stub-100",
		Description: "100-site transit-stub internet: fast backbone, slow access links",
		Seed:        42,
		Topology:    TopologySpec{Model: TopoTransitStub, Nodes: 100},
		Workload: WorkloadSpec{
			Model: WorkWeb, Objects: 16, Requests: 20000,
			HorizonMillis: (8 * time.Hour).Milliseconds(),
		},
		DeltaMillis:       (2 * time.Hour).Milliseconds(),
		QoS:               []float64{0.95, 0.99},
		Classes:           []string{"general", "storage-constrained", "replica-constrained"},
		Zeta:              2000,
		RequireAllClasses: true,
	})
	mustRegister(Spec{
		Name:        "remote-office-clustered",
		Description: "clustered remote offices: LAN clusters behind WAN uplinks to headquarters",
		Seed:        42,
		Topology:    TopologySpec{Model: TopoRemoteOffice, Nodes: 25, Clusters: 5},
		Workload: WorkloadSpec{
			Model: WorkGroup, Objects: 16, Requests: 16000,
			HorizonMillis: (8 * time.Hour).Milliseconds(),
		},
		DeltaMillis:       (2 * time.Hour).Milliseconds(),
		QoS:               []float64{0.95, 0.99},
		Classes:           []string{"general", "storage-constrained", "replica-constrained"},
		Zeta:              2000,
		RequireAllClasses: true,
	})
	// The tree family: the only instances with an external ground truth.
	// One evaluation interval (delta = horizon) and a Tqos = 1 goal keep
	// them inside the exact oracle's scope (internal/exact.SolveInstance),
	// so every bound on them is checked against a provably optimal cost.
	mustRegister(Spec{
		Name:        "tree-kary-63",
		Description: "63-site balanced binary tree; single interval, Tqos=1, exactly solvable",
		Seed:        42,
		Topology:    TopologySpec{Model: TopoTree, Nodes: 63, Shape: topology.TreeKAry, Arity: 2},
		Workload: WorkloadSpec{
			Model: WorkWeb, Objects: 12, Requests: 12000,
			HorizonMillis: (6 * time.Hour).Milliseconds(),
		},
		DeltaMillis:       (6 * time.Hour).Milliseconds(),
		QoS:               []float64{1.0},
		Classes:           []string{"general", "tree-upwards"},
		RequireAllClasses: true,
	})
	mustRegister(Spec{
		Name:        "tree-random-100",
		Description: "100-site random-attachment tree; single interval, Tqos=1, exactly solvable",
		Seed:        7,
		Topology:    TopologySpec{Model: TopoTree, Nodes: 100, Shape: topology.TreeRandom},
		Workload: WorkloadSpec{
			Model: WorkWeb, Objects: 10, Requests: 10000,
			HorizonMillis: (6 * time.Hour).Milliseconds(),
		},
		DeltaMillis:       (6 * time.Hour).Milliseconds(),
		QoS:               []float64{1.0},
		Classes:           []string{"general", "tree-upwards"},
		RequireAllClasses: true,
	})
	mustRegister(Spec{
		Name:        "flash-crowd",
		Description: "WEB baseline with a global flash crowd on a hot object set",
		Seed:        7,
		Topology:    TopologySpec{Model: TopoRandomAS, Nodes: 20},
		Workload: WorkloadSpec{
			Model: WorkFlashCrowd, Objects: 24, Requests: 12000,
			HorizonMillis: (12 * time.Hour).Milliseconds(),
			CrowdShare:    0.4, HotObjects: 3,
		},
		QoS:  []float64{0.9, 0.95, 0.99},
		Zeta: 1000,
	})
	mustRegister(Spec{
		Name:        "diurnal-shift",
		Description: "demand circles four time zones over one day; hot set drifts with it",
		Seed:        7,
		Topology:    TopologySpec{Model: TopoTransitStub, Nodes: 24},
		Workload: WorkloadSpec{
			Model: WorkDiurnal, Objects: 24, Requests: 16000,
			HorizonMillis: (24 * time.Hour).Milliseconds(),
			Zones:         4, ObjectDrift: true,
		},
		DeltaMillis: (3 * time.Hour).Milliseconds(),
		QoS:         []float64{0.9, 0.95, 0.99},
		Zeta:        1000,
	})
}
