package workload

import (
	"testing"
	"time"
)

// The drift scenarios must conserve request mass end to end: every request
// the generator emits lands in exactly one bucket of the interval
// aggregation, and the per-interval extraction re-partitions the bucketed
// tensor without loss.
func TestDriftModelsConserveRequestMass(t *testing.T) {
	cases := []struct {
		name     string
		requests int
		gen      func() (*Trace, error)
	}{
		{"flash-crowd", 5000, func() (*Trace, error) {
			return GenerateFlashCrowd(FlashCrowdOptions{
				Nodes: 10, Objects: 12, Requests: 5000, Duration: 12 * time.Hour, Seed: 7,
			})
		}},
		{"diurnal-shift", 6000, func() (*Trace, error) {
			return GenerateDiurnal(DiurnalOptions{
				Nodes: 10, Objects: 12, Requests: 6000, Duration: 24 * time.Hour,
				Seed: 7, ObjectDrift: true,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(tr.Accesses); got != tc.requests {
				t.Fatalf("generator emitted %d accesses, want %d", got, tc.requests)
			}
			c, err := tr.Bucket(time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			bucketed := 0
			for n := range c.Reads {
				for i := range c.Reads[n] {
					for k := range c.Reads[n][i] {
						bucketed += c.Reads[n][i][k] + c.Writes[n][i][k]
					}
				}
			}
			if bucketed != tc.requests {
				t.Fatalf("bucketed mass %d, generator emitted %d", bucketed, tc.requests)
			}
			perInterval := 0
			for i := 0; i < c.Intervals; i++ {
				m, err := c.IntervalReads(i)
				if err != nil {
					t.Fatal(err)
				}
				for n := range m {
					for _, v := range m[n] {
						perInterval += v
					}
				}
			}
			writes := 0
			for n := range c.Writes {
				for i := range c.Writes[n] {
					for _, v := range c.Writes[n][i] {
						writes += v
					}
				}
			}
			if perInterval+writes != tc.requests {
				t.Fatalf("per-interval extraction mass %d + %d writes, want %d", perInterval, writes, tc.requests)
			}
		})
	}
}

func TestStaleness(t *testing.T) {
	planned := [][]int{{10, 0}, {0, 10}}
	realized := [][]int{{0, 10}, {0, 10}}
	s, err := Staleness(planned, realized)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.0 { // 20 units of L1 drift over 20 realized reads
		t.Fatalf("staleness = %g, want 1.0", s)
	}
	if s, err = Staleness(planned, planned); err != nil || s != 0 {
		t.Fatalf("self-staleness = %g, %v; want 0, nil", s, err)
	}
	zero := [][]int{{0, 0}, {0, 0}}
	if s, err = Staleness(planned, zero); err != nil || s != 0 {
		t.Fatalf("zero-demand staleness = %g, %v; want 0, nil", s, err)
	}
	if _, err = Staleness(planned, [][]int{{1}}); err == nil {
		t.Fatal("Staleness accepted mismatched shape")
	}
}
