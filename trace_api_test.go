package piranha

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"piranha/internal/core"
	"piranha/internal/trace"
)

// tracedExp builds a traced experiment (each call owns a fresh tracer so
// experiments can run concurrently).
func tracedExp(name string, sys SystemConfig) Experiment {
	return Experiment{
		Name:      name,
		Sys:       sys,
		Work:      core.WorkloadSpec{Kind: core.OLTP},
		WarmTx:    tiny.Warm,
		MeasureTx: tiny.Measure,
		Seed:      7,
		Trace:     trace.New(0),
	}
}

func chromeBytes(t *testing.T, tr *trace.Tracer, label string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 0, label); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return buf.Bytes()
}

// TestTraceBatchMatchesSerial is the tracing half of the determinism
// contract: the trace a run records under RunBatch with a parallel
// worker pool is byte-for-byte the trace it records alone.
func TestTraceBatchMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		sys  SystemConfig
		kind core.WorkloadKind
	}{
		{"P1", P1(), core.OLTP},
		{"P4", P4(), core.OLTP},
		{"P8", P8(), core.OLTP},
		{"P4x2", MultiChip(2, 4), core.OLTP},
		{"P2-DSS", P2(), core.DSS},
	}
	exp := func(i int) Experiment {
		e := tracedExp(cases[i].name, cases[i].sys)
		e.Work.Kind = cases[i].kind
		return e
	}

	serial := make([][]byte, len(cases))
	for i := range cases {
		e := exp(i)
		RunExperiment(e)
		serial[i] = chromeBytes(t, e.Trace, cases[i].name)
	}

	exps := make([]Experiment, len(cases))
	for i := range cases {
		exps[i] = exp(i)
	}
	SetParallelism(4)
	RunBatch(exps)
	SetParallelism(0)
	for i := range exps {
		got := chromeBytes(t, exps[i].Trace, cases[i].name)
		if !bytes.Equal(got, serial[i]) {
			t.Fatalf("%s: parallel trace differs from serial (%d vs %d bytes)",
				cases[i].name, len(got), len(serial[i]))
		}
	}
}

// TestTraceCoversAllComponents checks the acceptance contract: a traced
// P8/OLTP run produces events from the cpu, l1, l2, pe, noc and memctl
// layers (plus the kernel).
func TestTraceCoversAllComponents(t *testing.T) {
	e := tracedExp("p8", P8())
	RunExperiment(e)
	events := e.Trace.Events(nil)
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	seen := map[trace.Component]bool{}
	for _, ev := range events {
		seen[ev.Comp] = true
	}
	for _, c := range []trace.Component{
		trace.CPU, trace.L1, trace.L2, trace.PE, trace.NOC, trace.Mem, trace.Kernel,
	} {
		if !seen[c] {
			t.Errorf("component %s missing from P8/OLTP trace", trace.Name(c, 0))
		}
	}

	out := chromeBytes(t, e.Trace, "p8")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}
}

// TestRunOptionsMatchExperiment checks the option API assembles exactly
// the experiment the escape hatch would run.
func TestRunOptionsMatchExperiment(t *testing.T) {
	got := Run(P4(), OLTP(),
		WithName("opt"),
		WithScale(tiny),
		WithSeed(99),
	)
	want := RunExperiment(Experiment{
		Name:      "opt",
		Sys:       P4(),
		Work:      core.WorkloadSpec{Kind: core.OLTP},
		WarmTx:    tiny.Warm,
		MeasureTx: tiny.Measure,
		Seed:      99,
	})
	if got != want {
		t.Fatalf("option API diverged from experiment:\n got %+v\nwant %+v", got, want)
	}
}

// TestWithTraceWritesChromeJSON exercises the WithTrace option end to
// end and its determinism across calls.
func TestWithTraceWritesChromeJSON(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		Run(P2(), OLTP(), WithScale(tiny), WithTrace(&buf), WithTraceCapacity(1024))
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("WithTrace output differs between identical runs")
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected trace document: unit=%q events=%d",
			doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

// TestWithIntervalsProducesSeries checks the sampler option: bins cover
// the measured window and the miss counts stay within the access counts.
func TestWithIntervalsProducesSeries(t *testing.T) {
	r := Run(P4(), OLTP(), WithScale(tiny), WithIntervals(2*time.Microsecond))
	if r.Series == nil || r.Series.Len() == 0 {
		t.Fatalf("no series recorded: %+v", r.Series)
	}
	var accesses, misses uint64
	for _, b := range r.Series.Bins {
		if b.Busy < 0 || b.Stall < 0 {
			t.Fatalf("negative bin: %+v", b)
		}
		accesses += b.Accesses
		misses += b.Misses
	}
	if accesses == 0 || misses > accesses {
		t.Fatalf("implausible access counts: %d accesses, %d misses", accesses, misses)
	}
	if !strings.Contains(r.Series.String(), "busy") {
		t.Fatalf("series render:\n%s", r.Series)
	}
	// The untraced result must match field-for-field apart from Series.
	plain := Run(P4(), OLTP(), WithScale(tiny))
	withSeries := r
	withSeries.Series = nil
	if withSeries != plain {
		t.Fatalf("interval sampling changed the simulation:\n got %+v\nwant %+v", withSeries, plain)
	}
}

// TestResultJSONSchema pins the versioned wire format of Result.
func TestResultJSONSchema(t *testing.T) {
	r := Run(P1(), OLTP(), WithScale(tiny), WithIntervals(5*time.Microsecond))
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["schema_version"].(float64); !ok || int(v) != core.ResultSchemaVersion {
		t.Fatalf("schema_version = %v, want %d", m["schema_version"], core.ResultSchemaVersion)
	}
	for _, k := range []string{
		"name", "chips", "cpus", "tx", "elapsed_ps", "time_per_tx_ns",
		"breakdown", "l1_miss_breakdown", "page_hit_rate", "instructions",
		"idle_ps", "ctx_switches", "l2", "svc", "series",
	} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON missing %q:\n%s", k, out)
		}
	}
	bd, ok := m["breakdown"].(map[string]any)
	if !ok {
		t.Fatalf("breakdown not an object: %v", m["breakdown"])
	}
	if _, ok := bd["busy_frac"]; !ok {
		t.Fatalf("breakdown missing busy_frac: %v", bd)
	}
	// Without intervals the series key disappears entirely.
	out2, err := json.Marshal(Run(P1(), OLTP(), WithScale(tiny)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out2, []byte(`"series"`)) {
		t.Fatalf("series key present on an interval-free run:\n%s", out2)
	}
}

// TestFigureReportSeriesRendering checks the harness-wide interval
// switch: reports grow sparkline blocks with it on, and render exactly
// as before with it off (the golden figures_output.txt contract).
func TestFigureReportSeriesRendering(t *testing.T) {
	SetParallelism(2)
	defer SetParallelism(0)
	plain := Fig6(tiny).String()
	if strings.Contains(plain, "series ") {
		t.Fatalf("series block rendered without SetIntervals:\n%s", plain)
	}
	SetIntervals(5 * time.Microsecond)
	defer SetIntervals(0)
	traced := Fig6(tiny).String()
	if !strings.Contains(traced, "series P8") || !strings.Contains(traced, "miss rate") {
		t.Fatalf("sparkline block missing with SetIntervals on:\n%s", traced)
	}
}

// TestHarnessTraceCapture drives the cmd/figures capture path: traces
// accumulate per run, in submission order, and merge into one document.
func TestHarnessTraceCapture(t *testing.T) {
	SetTraceCapture(2048)
	defer SetTraceCapture(-1)
	rep := fig5Single(core.OLTP, tiny)
	if len(rep.Results) != 4 {
		t.Fatalf("unexpected result count %d", len(rep.Results))
	}
	var buf bytes.Buffer
	if err := WriteCapturedTraces(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged capture not valid JSON: %v", err)
	}
	// One process per captured run, labeled in submission order.
	var procs []string
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "process_name" && ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			procs = append(procs, args["name"].(string))
		}
	}
	want := []string{"P1", "INO", "OOO", "P8"}
	if len(procs) != len(want) {
		t.Fatalf("process metadata %v, want %v", procs, want)
	}
	for i := range want {
		if procs[i] != want[i] {
			t.Fatalf("process order %v, want %v", procs, want)
		}
	}
}
