package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"piranha/internal/core"
	"piranha/internal/protocol"
)

// tiny returns a small-scale copy of a named workload: a few dozen
// transactions, or a 2-node model check.
func tiny(t *testing.T, name string) *workloadDef {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.setupReps = 2
	if w.exp != nil {
		c.exp = func(seed uint64) core.Experiment {
			e := w.exp(seed)
			e.WarmTx, e.MeasureTx = 10, 30
			return e
		}
		c.setup = func(seed uint64) error { return setupSystem(c.exp(seed)) }
	} else {
		c.nodes = 2
	}
	return &c
}

func checkMetrics(t *testing.T, res result, specs []metricSpec, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.name)
		case m.Unit != s.unit:
			t.Errorf("metric %s unit %q, want %q", s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v, not finite", s.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", s.name, m.Value)
		}
	}
}

func TestEndToEndMetricsFinite(t *testing.T) {
	for _, name := range []string{"oltp-p8", "mcheck-4n"} {
		t.Run(name, func(t *testing.T) {
			res, rep, err := runEndToEnd(tiny(t, name), runEnv{seed: 3, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Fatalf("result %+v, failures %v", res, rep.Failures)
			}
			checkMetrics(t, res, endToEnd, true)
		})
	}
}

func TestTracedMetricsFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes several seconds")
	}
	res, rep, err := runTraced(tiny(t, "oltp-p8"), runEnv{seed: 3, seconds: 1, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed: %v", rep.Failures)
	}
	if rep.TracedDigest != rep.Digest {
		t.Errorf("traced digest %s != untraced %s", rep.TracedDigest, rep.Digest)
	}
	checkMetrics(t, res, perLayer, false)
	for _, name := range []string{"l2.access_ns", "cpu.exec_ns", "attr.sum_frac", "prof.l2_share"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// A protocol mutant under the model checker must be counted as a
// failure, not crash the benchmark or pass.
func TestPlantedModelFailureCounted(t *testing.T) {
	muts := protocol.Mutations()
	if len(muts) == 0 {
		t.Skip("no protocol mutations")
	}
	c := newChecker(tiny(t, "mcheck-4n"), 1)
	c.table = muts[0].Apply()
	const runs = 3
	samples := c.measureRuns(runs)
	res := endToEndResult(samples, runs, 1e-3)
	if res.Failed != runs || res.Correct {
		t.Fatalf("failed %d of %d (correct=%v), want all failed", res.Failed, runs, res.Correct)
	}
	if got, want := res.Metrics["fail_frac"].Value, failFrac(runs, runs); got != want {
		t.Errorf("fail_frac %v, want %v", got, want)
	}
	if len(c.rep.Failures) != runs {
		t.Errorf("recorded %d failures, want %d", len(c.rep.Failures), runs)
	}
}

// A run whose simulated result differs from the first run's is a
// failure.
func TestDigestMismatchCounted(t *testing.T) {
	c := newChecker(tiny(t, "oltp-p8"), 1)
	if got := len(c.measureRuns(2)); got != 2 {
		t.Fatalf("clean runs: %d of 2 passed: %v", got, c.rep.Failures)
	}
	c.rep.Digest = "planted"
	if got := len(c.measureRuns(1)); got != 0 {
		t.Fatalf("run with a planted digest mismatch passed")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the code
// reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
