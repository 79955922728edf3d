package scenario

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Every registered scenario must compile, and compiling it twice must
// yield byte-identical systems — the determinism contract the stress
// runner and the placementd dedup path both rely on.
func TestRegisteredScenariosCompileDeterministically(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 builtin scenarios, got %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Fingerprint != r2.Fingerprint {
				t.Fatalf("fingerprints differ across compiles: %s vs %s", r1.Fingerprint, r2.Fingerprint)
			}
			if !r1.Streamed || r1.System.Trace != nil {
				t.Fatal("the default compile kept the trace")
			}
			b1, err := json.Marshal(r1.System)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(r2.System)
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Fatal("serialized systems differ across compiles")
			}
			if r1.System.Topo.N != spec.Nodes() {
				t.Fatalf("topology has %d nodes, spec says %d", r1.System.Topo.N, spec.Nodes())
			}
			if len(r1.Classes) != len(spec.ClassNames()) {
				t.Fatalf("resolved %d classes, spec lists %d", len(r1.Classes), len(spec.ClassNames()))
			}
		})
	}
}

// slowCompileRequests is the request volume from which a compile is too
// slow for -short runs (and materializing its trace too slow under the
// race detector): only paper20-group-full's 16M requests reach it.
const slowCompileRequests = 4_000_000

// goldenFingerprints pins the compiled system of every registered scenario.
// A change to a generator's draw order, its sampling or the bucketing moves
// these hashes, so such a change fails here and not only in the benchmark's
// reference check. A new scenario must add its fingerprint. The hashes
// cover counts, not traces: TestTraceGolden pins the access sequences.
var goldenFingerprints = map[string]string{
	"diurnal-shift":           "sha256:5bda2a9d1b689ad8dc20f399f7f3b314935e5c159e5c7e26dcbf39dd240dc217",
	"flash-crowd":             "sha256:01b9a4a6931d6c35483dbf8a1de6234db02170cc313b70a245f49a891c9d3c1f",
	"paper20-group":           "sha256:0f95f2ce60059259d21052eaa762e39f6333b5caa030372d63d48636c9ee5edc",
	"paper20-group-full":      "sha256:4b3001fbdd71cccae94a6c1ba84e5247dba5077ad05e110c8c092608667efa15",
	"paper20-web":             "sha256:caf32f0fcd62d2949f1302c8877d6d359525a38a5186824fb53a71966c520d4e",
	"remote-office-clustered": "sha256:5ddac2ced3d747c0f85e1e4542c3910d7ae09bbadd89f0d4089ce1ddd4797cd5",
	"transit-stub-100":        "sha256:194f6609479ee43bf7c8cf195cb3f57c249449e524a74d5d99f59b9745cf24a9",
	"tree-kary-63":            "sha256:20cee70f73c12fdd9e7af47497ab2a420e741a5c7d6c7f86c8cc4d83f1529f35",
	"tree-random-100":         "sha256:b6592091d385d8d3da6f013644c6dcda83598de32cad15b2477bbfc1b86154d9",
}

func TestRegisteredScenarioFingerprints(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			want, ok := goldenFingerprints[name]
			if !ok {
				t.Fatalf("no golden fingerprint for registered scenario %s", name)
			}
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Workload.Requests >= slowCompileRequests && testing.Short() {
				t.Skipf("skipping the %d-request compile in short mode", spec.Workload.Requests)
			}
			t.Parallel()
			res, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint != want {
				t.Fatalf("fingerprint %s, want %s", res.Fingerprint, want)
			}
		})
	}
}

// presetFingerprints pins the compiled system of every preset to the
// system its hand-coded generator path produced before the presets became
// scenario specs: the move is a refactoring of the paper instance, not a
// reinterpretation.
var presetFingerprints = map[string]string{
	"web-small":    "sha256:08522f4268e026fdaba793cc825c4c72a4b58b4ea4baf552cf823f109f3b4afc",
	"web-medium":   "sha256:acf54afb2a7866e207d8486e2bdd3420ad630929116fa0aed5ac3676b9f07b3d",
	"web-large":    "sha256:e2f3f3cfb6588502531a7ed0a5e95e04a4fdcf60757e593a3386de1ef950031f",
	"group-small":  "sha256:6979d2fd60225e0a715a8d5259a70016a12561427c8c8acc0e4f276ef4409606",
	"group-medium": "sha256:35d0093fd092da17fede6129325ae1c2f60ea3a0967b7636569c8190f7746011",
	"group-large":  "sha256:3980a2dcffaaa51caded9ed0be340e8b061502e90aeab3137b982611167f9df9",
}

func TestPresetFingerprints(t *testing.T) {
	for _, kind := range []string{WorkWeb, WorkGroup} {
		for _, scale := range []string{"small", "medium", "large"} {
			kind, scale := kind, scale
			t.Run(kind+"-"+scale, func(t *testing.T) {
				t.Parallel()
				spec, err := Preset(kind, scale)
				if err != nil {
					t.Fatal(err)
				}
				if spec.Name != kind+"-"+scale {
					t.Errorf("preset is named %q", spec.Name)
				}
				res, err := Compile(spec)
				if err != nil {
					t.Fatal(err)
				}
				if want := presetFingerprints[spec.Name]; res.Fingerprint != want {
					t.Fatalf("fingerprint %s, want %s", res.Fingerprint, want)
				}
			})
		}
	}
}

func TestPresetRejectsUnknownNames(t *testing.T) {
	for _, c := range [][2]string{{"web", "huge"}, {"cdn", "small"}, {"flash-crowd", "small"}} {
		if _, err := Preset(c[0], c[1]); err == nil {
			t.Errorf("Preset(%q, %q) accepted", c[0], c[1])
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[0.9],"typo":1}`, "unknown field"},
		{"missing name", `{"topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[0.9]}`, "needs a name"},
		{"unknown topology", `{"name":"x","topology":{"model":"mesh"},"workload":{"model":"web"},"qos":[0.9]}`, "unknown topology model"},
		{"unknown workload", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"batch"},"qos":[0.9]}`, "unknown workload model"},
		{"cross-model topo knob", `{"name":"x","topology":{"model":"random-as","transit":4},"workload":{"model":"web"},"qos":[0.9]}`, "not random-as parameters"},
		{"cross-model work knob", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web","crowdShare":0.4},"qos":[0.9]}`, "not web parameters"},
		{"tree knob on random-as", `{"name":"x","topology":{"model":"random-as","shape":"kary"},"workload":{"model":"web"},"qos":[0.9]}`, "not random-as parameters"},
		{"tree knob on transit-stub", `{"name":"x","topology":{"model":"transit-stub","depthScale":0.5},"workload":{"model":"web"},"qos":[0.9]}`, "not transit-stub parameters"},
		{"transit on tree", `{"name":"x","topology":{"model":"tree","transit":4},"workload":{"model":"web"},"qos":[0.9]}`, "not tree parameters"},
		{"unknown tree shape", `{"name":"x","topology":{"model":"tree","shape":"braided"},"workload":{"model":"web"},"qos":[0.9]}`, "unknown tree shape"},
		{"inverted hop range", `{"name":"x","topology":{"model":"random-as","minHopMillis":300,"maxHopMillis":100},"workload":{"model":"web"},"qos":[0.9]}`, "exceeds maxHopMillis"},
		{"qos out of range", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[1.5]}`, "outside (0, 1]"},
		{"duplicate qos", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[0.9,0.9]}`, "duplicate QoS"},
		{"unknown class", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[0.9],"classes":["psychic"]}`, "unknown class"},
		{"trailing data", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web"},"qos":[0.9]} {"more":true}`, "trailing data"},
		{"too many nodes", `{"name":"x","topology":{"model":"random-as","nodes":1025},"workload":{"model":"web"},"qos":[0.9]}`, "1025 exceeds the supported maximum"},
		{"too many objects", `{"name":"x","topology":{"model":"random-as","nodes":2},"workload":{"model":"web","objects":2000000000},"qos":[0.9]}`, "count cells"},
		{"default objects past the cap", `{"name":"x","topology":{"model":"random-as","nodes":1000},"workload":{"model":"web"},"qos":[0.9]}`, "count cells"},
		{"one-millisecond intervals", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web","objects":10},"deltaMillis":1,"qos":[0.9]}`, "count cells"},
		{"horizon past a Duration", `{"name":"x","topology":{"model":"random-as"},"workload":{"model":"web","horizonMillis":9223372036854775807},"qos":[0.9]}`, "must be at most"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// The size caps must admit every registered scenario at the largest
// default stress rung.
func TestSizeCapsAdmitStressRungs(t *testing.T) {
	for _, spec := range Specs() {
		scaled := spec.WithNodes(500)
		if err := scaled.Validate(); err != nil {
			t.Errorf("%s at 500 nodes: %v", spec.Name, err)
		}
	}
}

func TestWithNodesRescales(t *testing.T) {
	spec, err := Get("transit-stub-100")
	if err != nil {
		t.Fatal(err)
	}
	half := spec.WithNodes(50)
	if half.Nodes() != 50 {
		t.Fatalf("Nodes() = %d, want 50", half.Nodes())
	}
	if half.Workload.Requests != spec.Workload.Requests/2 {
		t.Fatalf("requests = %d, want %d", half.Workload.Requests, spec.Workload.Requests/2)
	}
	if half.Name != spec.Name {
		t.Fatal("WithNodes must preserve the scenario name")
	}
	if _, err := Compile(half); err != nil {
		t.Fatalf("rescaled spec does not compile: %v", err)
	}
	// Structural knobs stay within their legal ranges at tiny sizes.
	tiny, err := Get("remote-office-clustered")
	if err != nil {
		t.Fatal(err)
	}
	tiny = tiny.WithNodes(4)
	if tiny.Topology.Clusters < 1 || tiny.Topology.Clusters > 3 {
		t.Fatalf("clusters = %d out of range for 4 nodes", tiny.Topology.Clusters)
	}
	if _, err := Compile(tiny); err != nil {
		t.Fatalf("4-node remote-office spec does not compile: %v", err)
	}
}

func TestCompileSelfCheck(t *testing.T) {
	// An unattainably strict scenario must fail to compile: with tlat
	// below even the LAN latency floor only a local copy answers in time,
	// and the caching class cannot have a local copy before the cold miss
	// — so per-node-object first-interval reads stay uncovered and a
	// 0.999 goal is out of reach.
	spec := Spec{
		Name:     "impossible",
		Seed:     3,
		Topology: TopologySpec{Model: TopoRemoteOffice, Nodes: 12},
		Workload: WorkloadSpec{Model: WorkGroup, Objects: 8, Requests: 2000,
			HorizonMillis: 4 * 3600 * 1000},
		TlatMillis:        1,
		QoS:               []float64{0.999},
		Classes:           []string{"caching"},
		RequireAllClasses: true,
	}
	if _, err := Compile(spec); err == nil {
		t.Fatal("Compile accepted a scenario whose only class cannot attain its goal")
	}
	// The same scenario with an attainable class alongside compiles in
	// lenient mode and reports the weak class as a warning.
	spec.RequireAllClasses = false
	spec.Classes = []string{"general", "caching"}
	res, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("expected a warning for the unattainable replica-constrained class")
	}
}

func TestLoadResolvesNamesAndFiles(t *testing.T) {
	if _, err := Load("paper20-web"); err != nil {
		t.Fatalf("Load(paper20-web): %v", err)
	}
	if _, err := Load("no-such-scenario"); err == nil {
		t.Fatal("Load accepted a nonexistent reference")
	}
	dir := t.TempDir()
	path := dir + "/spec.json"
	raw := `{"name":"from-file","topology":{"model":"random-as","nodes":6},` +
		`"workload":{"model":"web","objects":8,"requests":500,"horizonMillis":7200000},"qos":[0.9]}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "from-file" {
		t.Fatalf("loaded %q, want from-file", s.Name)
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	if err := Register(Spec{Name: "paper20-web"}); err == nil {
		t.Fatal("Register accepted an invalid spec")
	}
	dup, err := Get("paper20-web")
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(dup); err == nil {
		t.Fatal("Register overwrote an existing name")
	}
}
