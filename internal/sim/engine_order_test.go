package sim

import (
	"sort"
	"testing"
)

// TestHeapOrderProperty drives the 4-ary heap with pseudo-random
// timestamps (duplicates included, deterministic seed) and checks the
// pop order against a reference sort by (time, insertion sequence).
func TestHeapOrderProperty(t *testing.T) {
	type key struct {
		at  Time
		seq int
	}
	rng := NewRNG(1234)
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(500)
		ref := make([]key, n)
		var got []key
		for i := 0; i < n; i++ {
			// A small time range forces plenty of equal-time ties.
			at := Time(rng.Intn(64))
			ref[i] = key{at, i}
			i := i
			e.Schedule(at, func() { got = append(got, key{e.Now(), i}) })
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].at != ref[b].at {
				return ref[a].at < ref[b].at
			}
			return ref[a].seq < ref[b].seq
		})
		e.Run()
		if len(got) != n {
			t.Fatalf("trial %d: executed %d of %d events", trial, len(got), n)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: pop %d = %+v, reference %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestHeapChurnOrder interleaves scheduling from inside callbacks with
// pops, the pattern the timing models actually generate, and checks
// time never goes backwards and FIFO holds within a timestamp.
func TestHeapChurnOrder(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(7)
	var last Time
	executed := 0
	var tick func()
	tick = func() {
		executed++
		if e.Now() < last {
			t.Fatalf("time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		if executed < 5000 {
			for k := 0; k < 1+rng.Intn(3); k++ {
				e.After(Time(rng.Intn(16)), tick)
			}
		}
	}
	e.Schedule(0, tick)
	for executed < 5000 && e.Step() {
	}
	if executed < 5000 {
		t.Fatalf("churn drained early at %d events", executed)
	}
}
