package piranha

import (
	"runtime"
	"testing"

	"piranha/internal/core"
)

// TestRunAllocationBounded bounds the bytes one run allocates, from
// building the machine to its Result: the runtime's TotalAlloc delta
// across RunExperiment. Per-line and per-op state is packed into machine
// words (cache ways, queued ops) and the post-run invariant check walks
// the caches in place, so a run allocates about 6.4 MB (8 nodes) and
// 2.8 MB (P8); with 24-byte ways and ops and a map-building check it
// allocated 14.8 MB and 8.7 MB (1 MB = 10^6 bytes, as perfbench's
// alloc_mb).
func TestRunAllocationBounded(t *testing.T) {
	cases := []struct {
		name       string
		e          Experiment
		maxMB      float64
		measuredTx uint64
	}{
		{"ScaleOut(8,1) OLTP", Experiment{
			Name: "scaleout8", Sys: ScaleOut(8, 1), Work: core.WorkloadSpec{Kind: core.OLTP},
			WarmTx: 8, MeasureTx: 32, Seed: 7,
		}, 8, 32},
		{"P8 OLTP", Experiment{
			Name: "p8", Sys: P8(), Work: core.WorkloadSpec{Kind: core.OLTP},
			WarmTx: 30, MeasureTx: 60, Seed: 11,
		}, 4, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := RunExperiment(tc.e)
			runtime.ReadMemStats(&after)
			if res.Tx != tc.measuredTx {
				t.Fatalf("measured %d transactions, want %d", res.Tx, tc.measuredTx)
			}
			mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			if mb > tc.maxMB {
				t.Fatalf("one run allocates %.1f MB, want at most %.0f MB", mb, tc.maxMB)
			}
			t.Logf("one run allocates %.1f MB", mb)
		})
	}
}
