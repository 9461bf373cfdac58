package sim

import "testing"

// The engine microbenchmarks pin down the per-event cost of the hot loop
// that every timing model runs on. EXPERIMENTS.md records the numbers
// before and after the 4-ary value-heap rewrite. Each shape below builds
// an engine and returns one unit of its steady-state work; the
// benchmarks time that unit, and TestEngineAllocatesNothing requires it
// to allocate nothing once warm.

// scheduleShape is steady-state insertion at a bounded queue depth, the
// shape real simulations sustain: fill 4096 events, drain, repeat. The
// callback is hoisted so only the engine's own cost is seen; one unit is
// one push plus its amortized pop.
func scheduleShape() func() {
	e := NewEngine()
	do := func() {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), do)
	}
	e.Run()
	t := e.Now()
	filled := 0
	return func() {
		t++
		e.Schedule(t, do)
		if filled++; filled == depth {
			e.Run()
			filled = 0
		}
	}
}

// stepHotShape is the schedule-one/run-one cycle that dominates
// simulations: a self-rescheduling event chain, as the CPU and cache
// models produce. One unit is one Step.
func stepHotShape() func() {
	e := NewEngine()
	var chain func()
	chain = func() { e.After(1, chain) }
	e.Schedule(0, chain)
	return func() { e.Step() }
}

// churnShape is mixed schedule/run churn with a standing population:
// each executed event reschedules successors at jittered offsets, so the
// heap stays ~256 deep and every Step both sifts down on pop and sifts
// up on pushes. One unit is one Step.
func churnShape() func() {
	e := NewEngine()
	const standing = 256
	var spawn func()
	live := 0
	spawn = func() {
		live--
		for live < standing {
			live++
			// Deterministic jitter spreads timestamps so the heap is
			// exercised at varying depths rather than acting as a FIFO.
			e.After(Time(1+(e.Executed()*7+uint64(live)*13)%64), spawn)
		}
	}
	live = 1
	e.Schedule(0, spawn)
	return func() { e.Step() }
}

func benchShape(b *testing.B, shape func() func()) {
	op := shape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkSchedule(b *testing.B) { benchShape(b, scheduleShape) }
func BenchmarkStepHot(b *testing.B)  { benchShape(b, stepHotShape) }
func BenchmarkChurn(b *testing.B)    { benchShape(b, churnShape) }

// TestEngineAllocatesNothing: in each benchmark shape, once the queue has
// reached its standing depth, scheduling and stepping allocate nothing.
func TestEngineAllocatesNothing(t *testing.T) {
	for _, s := range []struct {
		name  string
		shape func() func()
	}{
		{"schedule", scheduleShape},
		{"step-hot", stepHotShape},
		{"churn", churnShape},
	} {
		op := s.shape()
		batch := func() {
			for i := 0; i < 4096; i++ {
				op()
			}
		}
		batch()
		if allocs := testing.AllocsPerRun(10, batch); allocs != 0 {
			t.Errorf("%s: %.1f allocations per 4096 units", s.name, allocs)
		}
	}
}
