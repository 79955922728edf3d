package scenario

import (
	"testing"
)

// FuzzScenarioJSON feeds arbitrary bytes through the strict parser and —
// when a spec survives validation — through a size-capped compile. The
// invariants: Parse never panics, a parsed spec always re-validates, and
// a compiled system always agrees with its spec on dimensions and is
// fingerprintable. Compile is only attempted on tiny instances so the
// fuzzer spends its budget on the parser, not the generators.
func FuzzScenarioJSON(f *testing.F) {
	f.Add([]byte(`{"name":"x","topology":{"model":"random-as","nodes":6},` +
		`"workload":{"model":"web","objects":8,"requests":200,"horizonMillis":7200000},"qos":[0.9]}`))
	f.Add([]byte(`{"name":"x","topology":{"model":"transit-stub","nodes":8},` +
		`"workload":{"model":"flash-crowd","objects":6,"requests":150,"horizonMillis":3600000},"qos":[0.5,0.9]}`))
	f.Add([]byte(`{"name":"x","topology":{"model":"remote-office","nodes":7},` +
		`"workload":{"model":"diurnal","objects":4,"requests":100,"horizonMillis":3600000,"zones":2},"qos":[0.9]}`))
	f.Add([]byte(`{"name":"","qos":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse returned a spec that fails Validate: %v", err)
		}
		if spec.Nodes() > 8 || spec.Workload.Objects > 8 || spec.Workload.Requests > 200 ||
			spec.Workload.Objects == 0 || spec.Workload.Requests == 0 ||
			len(spec.QoS) > 4 {
			return // parsed fine; too big to compile under fuzzing
		}
		res, err := Compile(spec)
		if err != nil {
			return // semantic rejection (e.g. unattainable goal) is fine
		}
		if res.System.Topo.N != spec.Nodes() {
			t.Fatalf("compiled topology has %d nodes, spec says %d", res.System.Topo.N, spec.Nodes())
		}
		if res.System.Counts.Nodes != res.System.Topo.N {
			t.Fatal("counts/topology node counts disagree after compile")
		}
		if res.Fingerprint == "" {
			t.Fatal("compiled system has no fingerprint")
		}
	})
}
