package core

import (
	"testing"

	"piranha/internal/sim"
	"piranha/internal/workload"
)

// warmP8OLTP builds the P8 machine with closed-loop OLTP server
// processes spawned as Run spawns them, and runs warm transactions.
func warmP8OLTP(warm uint64) *System {
	sys := NewSystem(SystemConfig{Chips: 1, Chip: PiranhaChip(8)})
	ncpu := sys.TotalCPUs()
	perCPU, stream := buildWorkload(OLTP, WorkloadSpec{Kind: OLTP}, workload.DefaultLayout(), ncpu)
	rng := sim.NewRNG(1)
	for id := 0; id < ncpu*perCPU; id++ {
		sys.Kern.Spawn(id/perCPU, stream(id), rng.Uint64())
	}
	sys.Kern.RunTx(warm)
	return sys
}

// TestP8OLTPSteadyState checks a warmed P8 OLTP machine, 1000
// transactions in, against the simulation loop's host-cost contract.
func TestP8OLTPSteadyState(t *testing.T) {
	sys := warmP8OLTP(1000)

	// Kernel dispatch, op generation, the L1/L2 walk and the line
	// tables allocate nothing, which leaves the wake event each
	// transaction's commit I/O schedules.
	t.Run("allocs", func(t *testing.T) {
		const perRun = 50
		target := sys.Kern.Tx
		allocs := testing.AllocsPerRun(4, func() {
			target += perRun
			sys.Kern.RunTx(target)
		})
		if per := allocs / perRun; per > 2 {
			t.Fatalf("%.2f allocations per measured transaction, want at most 2", per)
		}
	})

	// The banks' block tables reuse the ways of blocks the engine clock
	// has passed, so the blocks they hold past the clock are those of the
	// accesses in flight, not every line ever blocked.
	t.Run("pending-bounded", func(t *testing.T) {
		peak := 0
		for sys.Kern.Tx < 3000 {
			sys.Kern.RunTx(sys.Kern.Tx + 1)
			peak = max(peak, sys.Chips[0].L2.PendingLines())
		}
		// The peak is 49 here. 128 leaves a margin and still fails a
		// table that keeps every block (110,683 by 3,000 transactions).
		t.Logf("at most %d blocks past the clock per chip", peak)
		if peak > 128 {
			t.Fatalf("block tables held %d lines past the clock, want at most 128", peak)
		}
	})
}
