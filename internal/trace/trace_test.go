package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"piranha/internal/sim"
)

// Components hold a possibly-nil tracer and call it unconditionally, so
// every exported method must be a no-op on nil. The methods are found by
// reflection, so a new one is checked without editing this test: each,
// called with zero arguments, must not panic and must return only zero
// values. A writer argument gets a buffer, since a nil tracer still
// exports an empty trace document.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	v := reflect.ValueOf(tr)
	buffer := reflect.TypeOf(&bytes.Buffer{})
	for i := 0; i < v.NumMethod(); i++ {
		m := v.Type().Method(i)
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for j := range args {
			in := m.Type.In(j + 1)
			args[j] = reflect.Zero(in)
			if in.Kind() == reflect.Interface && buffer.Implements(in) {
				args[j] = reflect.ValueOf(&bytes.Buffer{})
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s on a nil tracer panics: %v", m.Name, r)
				}
			}()
			for _, out := range v.Method(i).Call(args) {
				if !out.IsZero() {
					t.Errorf("%s on a nil tracer returns %v, want the zero value", m.Name, out)
				}
			}
		}()
	}
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span(CPU, KStall, 0, 0, 0, 0, 10, 0)
	tr.Instant(L2, KL2Owner, 0, 0, 0, 5, 0)
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer counts: len=%d total=%d dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	if got := tr.Events(nil); len(got) != 0 {
		t.Fatalf("nil tracer returned %d events", len(got))
	}
	if tr.Counts() != nil {
		t.Fatal("nil tracer returned a counts set")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Span(L1, KMissLoad, 0, int16(i), uint64(i), sim.Time(i), sim.Time(i+1), 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events(nil)
	if len(evs) != 4 {
		t.Fatalf("Events returned %d, want 4", len(evs))
	}
	// Oldest retained first: events 6,7,8,9.
	for i, e := range evs {
		if want := sim.Time(6 + i); e.Start != want {
			t.Fatalf("event %d start = %d, want %d", i, e.Start, want)
		}
	}
	// Counts cover all 10 recordings, dropped included.
	if got := tr.Counts().Value(Name(L1, KMissLoad)); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
}

func TestRingExactCapacity(t *testing.T) {
	tr := New(3)
	for i := 0; i < 3; i++ {
		tr.Instant(Mem, KPageHit, 0, 0, 0, sim.Time(i), 0)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 at exact capacity", tr.Dropped())
	}
	evs := tr.Events(nil)
	if len(evs) != 3 || evs[0].Start != 0 || evs[2].Start != 2 {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestResetReusesCounts(t *testing.T) {
	tr := New(8)
	tr.Span(CPU, KStall, 0, 0, 0, 0, 5, 0)
	set := tr.Counts()
	tr.Reset()
	if tr.Counts() != set {
		t.Fatal("Reset reallocated the counts set")
	}
	if got := set.Value(Name(CPU, KStall)); got != 0 {
		t.Fatalf("count after reset = %d, want 0", got)
	}
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("after reset: len=%d total=%d", tr.Len(), tr.Total())
	}
	tr.Span(CPU, KStall, 0, 0, 0, 0, 5, 0)
	if got := set.Value(Name(CPU, KStall)); got != 1 {
		t.Fatalf("count after re-record = %d, want 1", got)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := New(16)
	tr.Span(CPU, KStall, 0, 3, 0xdeadbeef, 800, 41_600, 2)
	tr.Span(L2, KL2Hit, 0, 5, 0x1000, 1_000_000, 1_021_000, 1)
	tr.Instant(L2, KL2Owner, 0, 5, 0x1000, 1_021_000, 7)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 0, "test"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 2 || instants != 1 || meta < 2 {
		t.Fatalf("spans=%d instants=%d meta=%d", spans, instants, meta)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	mk := func() *Tracer {
		tr := New(8)
		tr.Span(NOC, KICS, 0, 1, 64, 100, 10_100, 0)
		tr.Span(Mem, KPageMiss, 0, 2, 4096, 10_100, 80_100, 0)
		return tr
	}
	var a, b bytes.Buffer
	if err := mk().WriteChrome(&a, 3, "x"); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteChrome(&b, 3, "x"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same events exported different bytes")
	}
}

// TestSpanNoAlloc locks in the zero-allocation recording guarantee for
// both disabled and enabled tracers.
func TestSpanNoAlloc(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		nilTr.Span(CPU, KStall, 0, 0, 0, 0, 10, 0)
	}); n != 0 {
		t.Fatalf("nil tracer Span allocates %v/op", n)
	}
	tr := New(64)
	tr.Span(CPU, KStall, 0, 0, 0, 0, 10, 0) // create the counter once
	if n := testing.AllocsPerRun(100, func() {
		tr.Span(CPU, KStall, 0, 0, 0, 0, 10, 0)
	}); n != 0 {
		t.Fatalf("enabled tracer Span allocates %v/op", n)
	}
}
