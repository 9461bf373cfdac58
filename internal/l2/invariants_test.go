package l2

import (
	"fmt"
	"testing"

	"piranha/internal/cache"
	"piranha/internal/sim"
)

// warm reads 256 lines into the rig's L1s, every CPU's data and
// instruction caches alike, and stores to every fifth one, so a planted
// violation sits among well-formed records. The lines use L1 sets 0-255;
// plantLine picks lines in sets 300 and up.
func warm(t *testing.T, r *rig) {
	t.Helper()
	now := sim.Time(0)
	for i := 0; i < 256; i++ {
		now += 50 * sim.Nanosecond
		a := cache.Addr(i) * cache.LineBytes
		c := r.d[i%8]
		if i%3 == 0 {
			c = r.i[i%8]
		}
		r.l2.Access(now, c, Read, a)
		if i%5 == 0 {
			r.l2.Access(now+sim.Microsecond, r.d[(i+1)%8], ReadEx, a)
		}
	}
	r.check(t)
}

// plantLine is the k'th line a violation is planted on: away from the
// warm lines in the L1s and in the L2 banks.
func plantLine(k int) cache.LineAddr { return cache.LineAddr(1<<14 + 300 + k) }

// TestCheckInvariantsReportsEachViolation plants one broken invariant
// per case on a small warmed chip and requires CheckInvariants to report
// exactly the matching error.
func TestCheckInvariantsReportsEachViolation(t *testing.T) {
	x := plantLine(0)
	read := func(r *rig, c int) { r.l2.Access(sim.Millisecond+sim.Time(c)*sim.Microsecond, r.d[c], Read, x.Addr()) }
	info := func(r *rig) *lineInfo { return r.l2.BankOf(x).info.Ref(x) }
	arr := func(r *rig) *cache.Cache { return r.l2.BankOf(x).arr }
	// inL2Only leaves x in the L2 alone: d0 reads it, then evicts it as
	// owner, which writes it back into the L2.
	inL2Only := func(t *testing.T, r *rig) {
		read(r, 0)
		evictFrom(t, r, r.d[0], x.Addr())
	}
	cases := []struct {
		name      string
		inclusive bool
		plant     func(t *testing.T, r *rig)
		want      string
	}{
		{"untracked L1 line", false, func(t *testing.T, r *rig) {
			r.d[0].Fill(x, cache.Shared)
		}, fmt.Sprintf("line %#x held by L1s 0x1 but untracked", x)},
		{"untracked L2 line", false, func(t *testing.T, r *rig) {
			arr(r).Insert(x, cache.Shared)
		}, fmt.Sprintf("line %#x valid in L2 bank %d but untracked", x, uint64(x)%8)}, // the rig has 8 banks
		{"sharer mask with an extra bit", false, func(t *testing.T, r *rig) {
			read(r, 0)
			info(r).sharers |= 1 << 2
		}, fmt.Sprintf("line %#x dup tags 0x5, actual 0x1", x)},
		{"sharer mask with a missing bit", false, func(t *testing.T, r *rig) {
			read(r, 0)
			read(r, 1)
			info(r).sharers &^= 1 << 2
		}, fmt.Sprintf("line %#x dup tags 0x1, actual 0x5", x)},
		{"exclusive in two L1s", false, func(t *testing.T, r *rig) {
			read(r, 0)
			read(r, 1)
			r.d[0].SetState(x, cache.Modified)
			r.d[1].SetState(x, cache.Exclusive)
		}, fmt.Sprintf("line %#x exclusive in 2 L1s", x)},
		{"exclusive alongside sharers", false, func(t *testing.T, r *rig) {
			read(r, 0)
			read(r, 1)
			r.d[0].SetState(x, cache.Modified)
		}, fmt.Sprintf("line %#x exclusive alongside sharers", x)},
		{"exclusive in an L1 and valid in the L2", false, func(t *testing.T, r *rig) {
			read(r, 0)
			arr(r).Insert(x, cache.Shared)
		}, fmt.Sprintf("line %#x exclusive in an L1 and valid in L2", x)},
		{"inclusive L2 line missing from the L2", true, func(t *testing.T, r *rig) {
			read(r, 0)
			arr(r).Invalidate(x)
		}, fmt.Sprintf("line %#x held by L1s but absent from the inclusive L2", x)},
		{"record resident nowhere", false, func(t *testing.T, r *rig) {
			inL2Only(t, r)
			arr(r).Invalidate(x)
		}, fmt.Sprintf("line %#x tracked but resident nowhere", x)},
		{"L2 owner with no L2 copy", false, func(t *testing.T, r *rig) {
			read(r, 0)
			info(r).owner = ownerL2
		}, fmt.Sprintf("line %#x owned by L2 but not in L2", x)},
		{"L1 owner that does not hold the line", false, func(t *testing.T, r *rig) {
			read(r, 0)
			read(r, 1)
			info(r).owner = 4
		}, fmt.Sprintf("line %#x owner L1 4 does not hold it", x)},
		{"L1 owner of a line the L2 holds", false, func(t *testing.T, r *rig) {
			inL2Only(t, r)
			read(r, 1) // an L2 hit: d1 shares, the L2 keeps ownership
			info(r).owner = 2
		}, fmt.Sprintf("line %#x in L2 but owned by L1 2", x)},
		{"residency bit without an L2 copy", false, func(t *testing.T, r *rig) {
			read(r, 0)
			info(r).flags |= lineInL2
		}, fmt.Sprintf("line %#x residency bit true, in L2 array false", x)},
		{"L2 copy without the residency bit", false, func(t *testing.T, r *rig) {
			inL2Only(t, r)
			info(r).flags &^= lineInL2
		}, fmt.Sprintf("line %#x residency bit false, in L2 array true", x)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			if tc.inclusive {
				r = newInclusiveRig(t)
			}
			warm(t, r)
			tc.plant(t, r)
			err := r.l2.CheckInvariants()
			if err == nil {
				t.Fatalf("no violation reported, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("got %q, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsAllocatesNothing: checking a warmed 8-core chip
// walks the L1 arrays and the banks' line tables in place.
func TestCheckInvariantsAllocatesNothing(t *testing.T) {
	r := newRig(t)
	warm(t, r)
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.l2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckInvariants allocates %.1f objects per call", allocs)
	}
}
