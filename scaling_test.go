package piranha

import (
	"bytes"
	"testing"

	"piranha/internal/core"
	"piranha/internal/trace"
)

func TestScaleOutTorusDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{8, 2, 4}, {32, 4, 8}, {64, 8, 8}, {256, 16, 16}, {1024, 32, 32},
	}
	for _, c := range cases {
		w, h := torusDims(c.n)
		if w != c.w || h != c.h {
			t.Errorf("torusDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		sys := ScaleOut(c.n, 1)
		if sys.Chips != c.n || sys.Topology.Nodes() != c.n {
			t.Errorf("ScaleOut(%d): %d chips, topology %d nodes", c.n, sys.Chips, sys.Topology.Nodes())
		}
	}
}

// TestScaleOut256ByteIdentity is the scale-out determinism contract: a
// traced 256-node torus run is byte-identical, in its Result and its
// Chrome trace, between a serial call and the bounded-pool batch runner.
// This is the machine size where the sparse-activation NoC, the
// diameter-sized arrival wheel, and the O(active) fabric paths are all
// exercised, so identity here certifies they preserve the simulation's
// event and RNG streams.
func TestScaleOut256ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node run in -short mode")
	}
	small := Scale{Warm: 4, Measure: 16}
	exp := func() Experiment {
		return Experiment{
			Name: "scale256", Sys: ScaleOut256(), Work: core.WorkloadSpec{Kind: core.OLTP},
			WarmTx: small.Warm, MeasureTx: small.Measure, Seed: 11,
			Trace: trace.New(0),
		}
	}
	se := exp()
	serial := RunExperiment(se)
	be := exp()
	SetParallelism(4)
	batch := RunBatch([]Experiment{be})[0]
	SetParallelism(0)
	if serial != batch {
		t.Fatalf("serial vs RunBatch differ:\n serial=%+v\n batch=%+v", serial, batch)
	}
	wantTr, gotTr := chromeBytes(t, se.Trace, "scale256"), chromeBytes(t, be.Trace, "scale256")
	if !bytes.Equal(wantTr, gotTr) {
		t.Fatalf("serial vs RunBatch trace bytes differ (%d vs %d bytes)", len(wantTr), len(gotTr))
	}
}

// TestScalingSweepDeterministic runs a small node campaign twice and
// requires identical curves — the property that lets cmd/piranha's
// scaling mode and the CI determinism job cmp whole output files. Its
// points are exactly ScaleOut(n, 1) machines.
func TestScalingSweepDeterministic(t *testing.T) {
	cfg := Campaign{Sys: P1(), Work: OLTP(), Nodes: []int{8, 32}, Scale: Scale{Warm: 1, Measure: 2}, Seed: 5}
	a := mustCampaign(t, cfg)
	b := mustCampaign(t, cfg)
	if a.String() != b.String() {
		t.Fatalf("scaling campaign not deterministic:\n%s\n---\n%s", a, b)
	}
	if len(a.Cells) != 2 || a.Cells[0].Nodes != 8 || a.Cells[1].Nodes != 32 {
		t.Fatalf("unexpected cells: %+v", a.Cells)
	}
	if a.Cells[0].RelTput != 1 || a.Cells[1].RelTput <= 1 {
		t.Fatalf("throughput not increasing: %+v", a.Cells)
	}
	for i, n := range cfg.Nodes {
		if got, want := a.Cells[i].Result.CPUs, ScaleOut(n, 1).Chips; got != want {
			t.Fatalf("%d nodes: %d CPUs, want %d", n, got, want)
		}
	}
}

// TestScaleOutWorkPerTxFlat is the O(active) contract as a count rather
// than a host time: the simulated work behind one transaction must not
// grow with the machine. At DefaultPerNodeScale a 64-node torus may
// record at most 1.25x the tracer events per measured transaction of an
// 8-node one (about 1.1x today). A path that visits every node instead
// of the active set, such as invalidating every node rather than the
// directory's sharers, doubles the ratio.
func TestScaleOutWorkPerTxFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node run in -short mode")
	}
	eventsPerTx := func(n int) float64 {
		e := Experiment{
			Name: "scaleout", Sys: ScaleOut(n, 1), Work: core.WorkloadSpec{Kind: core.OLTP},
			WarmTx:    DefaultPerNodeScale.Warm * uint64(n),
			MeasureTx: DefaultPerNodeScale.Measure * uint64(n),
			Seed:      7, Trace: trace.New(0),
		}
		if res := RunExperiment(e); res.Tx != e.MeasureTx {
			t.Fatalf("%d nodes: measured %d transactions, want %d", n, res.Tx, e.MeasureTx)
		}
		return float64(e.Trace.Total()) / float64(e.MeasureTx)
	}
	small, large := eventsPerTx(8), eventsPerTx(64)
	if large > 1.25*small {
		t.Fatalf("events per transaction grew %.2fx from 8 to 64 nodes (%.0f vs %.0f), limit 1.25x",
			large/small, small, large)
	}
	t.Logf("events per transaction: 8 nodes %.0f, 64 nodes %.0f (%.2fx)", small, large, large/small)
}

// TestNewSystemErrBadTopology pins the error path NewSystemErr adds: a
// topology whose node count disagrees with Chips must come back as an
// error (and as a panic from NewSystem), not a mis-built machine.
func TestNewSystemErrBadTopology(t *testing.T) {
	bad := ScaleOut(64, 1)
	bad.Chips = 32 // topology still 8x8
	if _, err := core.NewSystemErr(bad); err == nil {
		t.Fatal("NewSystemErr accepted a 64-node topology on a 32-chip system")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem did not panic on bad topology")
		}
	}()
	core.NewSystem(bad)
}
