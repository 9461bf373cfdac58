package directory

import (
	"slices"
	"testing"
)

// The model checker (internal/mcheck) routes every directory update of
// its micro-systems through Encode/Decode, so the codec must be exact
// for every sharer-bitset shape reachable at 2–4 nodes. This test is
// the static counterpart: exhaustively enumerate all subsets at each
// size and require a perfect round-trip for every encodable state.
func TestExhaustiveRoundTripSmallSystems(t *testing.T) {
	for nodes := 2; nodes <= 4; nodes++ {
		cfg := Config{Nodes: nodes}

		// Uncached ignores the body entirely.
		bits, err := Encode(cfg, Clear())
		if err != nil {
			t.Fatalf("nodes=%d: Encode(Clear) failed: %v", nodes, err)
		}
		if got := Decode(cfg, bits); got.State != Uncached || len(got.AppendSharers(cfg, nil)) != 0 {
			t.Errorf("nodes=%d: uncached round-trip gave %+v", nodes, got)
		}

		// Exclusive: every possible owner.
		for owner := 0; owner < nodes; owner++ {
			e := Entry{State: Exclusive, Owner: NodeID(owner)}
			bits, err := Encode(cfg, e)
			if err != nil {
				t.Fatalf("nodes=%d owner=%d: %v", nodes, owner, err)
			}
			got := Decode(cfg, bits)
			if got.State != Exclusive || got.Owner != NodeID(owner) {
				t.Errorf("nodes=%d: exclusive owner %d round-trips to %+v", nodes, owner, got)
			}
		}

		// Shared and SharedCoarse: every non-empty subset of nodes. At
		// these sizes the subset count (≤ MaxPointers) always fits the
		// limited-pointer form, and each coarse-vector group covers one
		// node, so both representations must be exact.
		if g := cfg.GroupSize(); g != 1 {
			t.Fatalf("nodes=%d: group size %d, want 1 (coarse form would be lossy)", nodes, g)
		}
		for mask := 1; mask < 1<<nodes; mask++ {
			var want []NodeID
			for i := 0; i < nodes; i++ {
				if mask&(1<<i) != 0 {
					want = append(want, NodeID(i))
				}
			}
			for _, state := range []State{Shared, SharedCoarse} {
				e := Entry{State: SharedCoarse, vec: uint64(mask)}
				if state == Shared {
					e = Clear()
					for _, n := range want {
						e = AddSharer(cfg, e, n)
					}
				}
				bits, err := Encode(cfg, e)
				if err != nil {
					t.Fatalf("nodes=%d mask=%b state=%v: %v", nodes, mask, state, err)
				}
				got := Decode(cfg, bits)
				if got.State != state {
					t.Errorf("nodes=%d mask=%b: state %v round-trips to %v", nodes, mask, state, got.State)
				}
				if m := got.AppendSharers(cfg, nil); !slices.Equal(m, want) {
					t.Errorf("nodes=%d state=%v: sharer set %b round-trips to %v", nodes, state, mask, m)
				}
			}
		}

		// A shared encoding with an empty sharer set collapses to the
		// uncached encoding rather than a count-underflowed body.
		empty, err := Encode(cfg, Entry{State: Shared})
		if err != nil {
			t.Fatalf("nodes=%d: Encode(Shared, empty) failed: %v", nodes, err)
		}
		if got := Decode(cfg, empty); got.State != Uncached {
			t.Errorf("nodes=%d: empty shared set decodes as %v, want Uncached", nodes, got.State)
		}
	}
}

// TestRoundTrip1000Nodes exercises the codec at a node count that does
// NOT divide evenly into the 42 coarse-vector bits: ceil(1000/42) = 24
// nodes per group, so the 42 groups nominally cover 1008 ids and the
// last group's expansion must clamp at node 1000 instead of inventing
// sharers 1000..1007 (which a glueless 1000-node machine would then
// try to invalidate). The 2–4-node exhaustive test above never sees
// this: its group size is 1.
func TestRoundTrip1000Nodes(t *testing.T) {
	const nodes = 1000
	cfg := Config{Nodes: nodes}
	if g := cfg.GroupSize(); g != 24 {
		t.Fatalf("group size %d, want 24", g)
	}

	// Exclusive with a high owner id uses the full 10-bit pointer.
	bits, err := Encode(cfg, Entry{State: Exclusive, Owner: 999})
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(cfg, bits); got.State != Exclusive || got.Owner != 999 {
		t.Fatalf("exclusive owner 999 round-trips to %+v", got)
	}

	// Limited-pointer form is exact at any id spread.
	ptrs := []NodeID{5, 41, 983, 999}
	e := Clear()
	for _, n := range ptrs {
		e = AddSharer(cfg, e, n)
	}
	bits, err = Encode(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(cfg, bits); got != e || !slices.Equal(got.AppendSharers(cfg, nil), ptrs) {
		t.Fatalf("limited-pointer sharers round-trip to %v", got.AppendSharers(cfg, nil))
	}

	// Coarse form: the decode is a clamped superset — every true sharer
	// present, nothing at or past node 1000, and only whole (clamped)
	// groups of the encoded members.
	cases := [][]NodeID{
		{999},                  // last group: covers 984..1007 unclamped
		{0, 500, 996},          // first, middle, and last group
		{983, 984},             // straddles the group 40/41 boundary
		{42, 66, 90, 114, 138}, // five sharers force coarse in practice
	}
	for _, ids := range cases {
		groups := map[int]bool{}
		e := Entry{State: SharedCoarse}
		for _, n := range ids {
			groups[int(n)/24] = true
			e = AddSharer(cfg, e, n)
		}
		bits, err := Encode(cfg, e)
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		got := Decode(cfg, bits)
		if got.State != SharedCoarse {
			t.Fatalf("%v: state %v", ids, got.State)
		}
		for _, n := range ids {
			if !got.HasSharer(cfg, n) {
				t.Errorf("%v: decode lost sharer %d", ids, n)
			}
		}
		want := 0
		for g := range groups {
			lo, hi := g*24, (g+1)*24
			if hi > nodes {
				hi = nodes
			}
			want += hi - lo
		}
		members := got.AppendSharers(cfg, nil)
		if len(members) != want {
			t.Errorf("%v: decoded %d sharers, want clamped group expansion %d", ids, len(members), want)
		}
		for _, m := range members {
			if int(m) >= nodes {
				t.Errorf("%v: decoded phantom sharer %d beyond %d nodes", ids, m, nodes)
			}
			if !groups[int(m)/24] {
				t.Errorf("%v: decoded sharer %d outside any encoded group", ids, m)
			}
		}
		for n := nodes; n < MaxNodes; n++ {
			if got.HasSharer(cfg, NodeID(n)) {
				t.Errorf("%v: node %d beyond %d nodes listed as a sharer", ids, n, nodes)
			}
		}

		// Enumeration agrees with a naive HasSharer scan, in order.
		var naive []NodeID
		for i := 0; i < nodes; i++ {
			if got.HasSharer(cfg, NodeID(i)) {
				naive = append(naive, NodeID(i))
			}
		}
		if !slices.Equal(members, naive) {
			t.Errorf("%v: AppendSharers %v, naive scan %v", ids, members, naive)
		}
	}
}
