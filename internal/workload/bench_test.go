package workload

import (
	"fmt"
	"testing"
	"time"
)

// The trace-pipeline benchmarks compare the two aggregation paths at the
// paper's GROUP shape — 20 nodes, 1000 objects, 24h horizon — at a tenth of
// the published volume and at the full 16M requests:
//
//	go test ./internal/workload/ -bench BenchmarkGroup -benchtime 1x -cpu 1,2
//
// Materialized holds the full access slice; Stream aggregates bounded
// chunks drawn on GOMAXPROCS goroutines, so -cpu sets its generator count.
// ReportAllocs makes the peak-memory story visible as allocated bytes per
// op.

var benchVolumes = []int{1_600_000, 16_000_000}

func benchGroupOptions(requests int) GroupOptions {
	return GroupOptions{
		Nodes: 20, Objects: 1000, Requests: requests,
		Duration: 24 * time.Hour, Seed: 1,
	}
}

var benchSink *Counts

func BenchmarkGroupMaterializedBucket(b *testing.B) {
	for _, requests := range benchVolumes {
		b.Run(fmt.Sprintf("requests=%d", requests), func(b *testing.B) {
			opts := benchGroupOptions(requests)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := GenerateGroup(opts)
				if err != nil {
					b.Fatal(err)
				}
				if benchSink, err = tr.Bucket(time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGroupStreamCounts(b *testing.B) {
	for _, requests := range benchVolumes {
		b.Run(fmt.Sprintf("requests=%d", requests), func(b *testing.B) {
			opts := benchGroupOptions(requests)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := StreamGroup(opts)
				if err != nil {
					b.Fatal(err)
				}
				if benchSink, err = st.Counts(time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
