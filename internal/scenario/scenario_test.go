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

// goldenFingerprints pins the compiled system of every registered scenario.
// A change to a generator's draw order, its sampling or the bucketing moves
// these hashes, so such a change fails here and not only in the benchmark's
// reference check. A new scenario must add its fingerprint.
var goldenFingerprints = map[string]string{
	"diurnal-shift":           "sha256:a7c6961f218e79de2fac72baa7e6312e69258f2f68c8b08178e77d9a19be4998",
	"flash-crowd":             "sha256:5d127a08e09c6d00aa016ef3c3d459c22ca6556a59a97bf3cf3e7e508a1e6973",
	"paper20-group":           "sha256:e09215298a6e477c1d6d55fb7593d72a24787fec2cb73ecfd3b131750cd0be46",
	"paper20-group-full":      "sha256:4b3001fbdd71cccae94a6c1ba84e5247dba5077ad05e110c8c092608667efa15",
	"paper20-web":             "sha256:d6674f10a3b1b21d0146cc3225f94c90461e8cf61a89f95d3f0e5e1ebfac20bd",
	"remote-office-clustered": "sha256:a3f287ec025609f95685d0d31bd5abe5b7f3c8d312c3d5b0f21fd2eb825dbf78",
	"transit-stub-100":        "sha256:ac61adc7ad56336dd611e4aadc5e54fa3ef52062d281ee742acc64bb24c79529",
	"tree-kary-63":            "sha256:9ee7a81e32b2ee6f460a800a6fd17d34838987bdfc0345b223c477d09f8e0823",
	"tree-random-100":         "sha256:d6d371e0323f561bdc3bfb20872e49d91deb3d15229fe5e0342bf16934c5b088",
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
			if spec.Workload.Requests >= StreamingThreshold && testing.Short() {
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
// fingerprint its hand-coded generator path produced before the presets
// became scenario specs: the move is a refactoring of the paper instance,
// not a reinterpretation.
var presetFingerprints = map[string]string{
	"web-small":    "sha256:31b6971e2fde92bbdef6b0b5269ef2a568be748a1250e230101c82f48ee8b532",
	"web-medium":   "sha256:8fc3fb595e18ce01b5c398c5fa51a8e4bfff4471abb54f4533f256ed31209b0d",
	"web-large":    "sha256:c3c8a36d6c9c1ccc267de2ec07ce58d4e9f3911e69914a716c8d5c4c196d76a4",
	"group-small":  "sha256:a4ad0ad3e3ec9bde0b6505afcc966229918378c7e8199766191a16399fcb88f8",
	"group-medium": "sha256:cfac7665a704e77478100fc7c500a6d33f4713b63b7f49cdff02136e4319507e",
	"group-large":  "sha256:462467a5345d10e3e27ea18d9a3a33a2f5336a631abc22aeef15373d02201b8a",
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
