package lp

import "testing"

// TestPricingRuleStamp checks that every solve, presolved or not, stamps
// the devex rule into Stats.PricingRule: report footers print the name.
func TestPricingRuleStamp(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddGE([]Coef{{x, 1}}, 2, "")
	for _, mode := range []PresolveMode{PresolveOn, PresolveOff} {
		sol, err := SolveModel(m, Options{Presolve: mode})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.PricingRule != "devex" {
			t.Errorf("presolve mode %v: pricing rule = %q, want devex", mode, sol.Stats.PricingRule)
		}
	}
}

// TestStatsPricingRuleMerge covers the aggregation semantics: agreeing
// solves keep the name, disagreeing ones degrade to "mixed".
func TestStatsPricingRuleMerge(t *testing.T) {
	var s Stats
	s.Add(Stats{PricingRule: "devex"})
	if s.PricingRule != "devex" {
		t.Errorf("after first add: %q", s.PricingRule)
	}
	s.Add(Stats{}) // empty contributions never change the name
	s.Add(Stats{PricingRule: "devex"})
	if s.PricingRule != "devex" {
		t.Errorf("after agreeing adds: %q", s.PricingRule)
	}
	s.Add(Stats{PricingRule: "dantzig"})
	if s.PricingRule != "mixed" {
		t.Errorf("after disagreeing add: %q", s.PricingRule)
	}
}
