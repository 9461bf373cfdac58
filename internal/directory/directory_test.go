package directory

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"piranha/internal/sim"
)

var cfg1k = Config{Nodes: 1024}

// shared builds an entry by adding each node in turn, as the home
// engines do.
func shared(cfg Config, nodes ...NodeID) Entry {
	e := Clear()
	for _, n := range nodes {
		e = AddSharer(cfg, e, n)
	}
	return e
}

// TestEntryIsCompact pins the entry to the hardware word's fields. Every
// home-engine dispatch copies an entry through decode, AddSharer and
// encode, so a sharer set expanded over the machine (1,024 bits) would
// cost those copies, and the codec's loops, the machine size.
func TestEntryIsCompact(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s > 32 {
		t.Fatalf("sizeof(Entry) = %d bytes, want at most 32", s)
	}
}

func TestEntryBitsFitECCSpare(t *testing.T) {
	// The codec must never produce more than the 44 bits the ECC scheme
	// frees per 64-byte line.
	e := Clear()
	for i := 0; i < 1024; i++ {
		e = AddSharer(cfg1k, e, NodeID(i))
	}
	bits, err := Encode(cfg1k, e)
	if err != nil {
		t.Fatal(err)
	}
	if bits>>EntryBits != 0 {
		t.Fatalf("encoding uses more than %d bits: %#x", EntryBits, bits)
	}
	// 25-node groups: the 41st ends at node 1024, so bit 41 covers no
	// node and stays clear.
	if bits != uint64(SharedCoarse)<<42|(1<<41-1) {
		t.Fatalf("every node sharing should set all 41 live group bits, got %#x", bits)
	}
}

func TestUncachedRoundTrip(t *testing.T) {
	bits, err := Encode(cfg1k, Clear())
	if err != nil {
		t.Fatal(err)
	}
	if bits != 0 {
		t.Fatalf("uncached should encode to zero, got %#x", bits)
	}
	e := Decode(cfg1k, bits)
	if e.State != Uncached || len(e.AppendSharers(cfg1k, nil)) != 0 {
		t.Fatalf("decoded %+v", e)
	}
}

func TestExclusiveRoundTrip(t *testing.T) {
	for _, owner := range []NodeID{0, 1, 511, 1023} {
		bits, err := Encode(cfg1k, SetExclusive(Entry{}, owner))
		if err != nil {
			t.Fatal(err)
		}
		e := Decode(cfg1k, bits)
		if e.State != Exclusive || e.Owner != owner {
			t.Fatalf("owner %d decoded as %+v", owner, e)
		}
	}
}

func TestSharedPointerRoundTrip(t *testing.T) {
	cases := [][]NodeID{
		{5},
		{0, 1023},
		{3, 17, 255},
		{1, 2, 3, 1000},
		{1000, 3, 2, 1}, // pointers are stored ascending whatever the order added
	}
	for _, sharers := range cases {
		bits, err := Encode(cfg1k, shared(cfg1k, sharers...))
		if err != nil {
			t.Fatal(err)
		}
		got := Decode(cfg1k, bits)
		if got.State != Shared {
			t.Fatalf("state %v", got.State)
		}
		want := slices.Clone(sharers)
		slices.Sort(want)
		if m := got.AppendSharers(cfg1k, nil); !slices.Equal(m, want) {
			t.Fatalf("sharers %v round-trip to %v", sharers, m)
		}
		for _, n := range sharers {
			if !got.HasSharer(cfg1k, n) {
				t.Fatalf("lost sharer %d", n)
			}
		}
	}
}

func TestCoarseVectorSuperset(t *testing.T) {
	// Coarse form must decode to a superset of the encoded sharers and
	// must cover every node of a marked group.
	sharers := []NodeID{0, 100, 500, 999, 1023}
	bits, err := Encode(cfg1k, shared(cfg1k, sharers...))
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(cfg1k, bits)
	if got.State != SharedCoarse {
		t.Fatalf("state %v", got.State)
	}
	for _, n := range sharers {
		if !got.HasSharer(cfg1k, n) {
			t.Fatalf("coarse decode lost sharer %d", n)
		}
	}
	g := cfg1k.GroupSize()
	// Every decoded member's whole group must be present.
	for _, n := range got.AppendSharers(cfg1k, nil) {
		base := (int(n) / g) * g
		for i := base; i < base+g && i < 1024; i++ {
			if !got.HasSharer(cfg1k, NodeID(i)) {
				t.Fatalf("group of node %d only partially present", n)
			}
		}
	}
}

func TestAddSharerSwitchesToCoarse(t *testing.T) {
	e := shared(cfg1k, 0, 7, 14, 21)
	if e.State != Shared {
		t.Fatalf("4 sharers should stay limited-pointer, got %v", e.State)
	}
	if again := AddSharer(cfg1k, e, 14); again != e {
		t.Fatalf("re-adding a sharer changed %+v to %+v", e, again)
	}
	e = AddSharer(cfg1k, e, NodeID(700))
	if e.State != SharedCoarse {
		t.Fatalf("5th sharer should switch to coarse, got %v", e.State)
	}
	// Round-trip still covers all five.
	bits, err := Encode(cfg1k, e)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(cfg1k, bits)
	for _, n := range []NodeID{0, 7, 14, 21, 700} {
		if !got.HasSharer(cfg1k, n) {
			t.Fatalf("post-switch decode lost %d", n)
		}
	}
}

func TestAddSharerToExclusive(t *testing.T) {
	e := SetExclusive(Entry{}, 42)
	e = AddSharer(cfg1k, e, 99)
	if e.State != Shared || !e.HasSharer(cfg1k, 42) || !e.HasSharer(cfg1k, 99) || e.Owner != 0 {
		t.Fatalf("downgrade on add: %+v", e)
	}
}

func TestDropSharer(t *testing.T) {
	e := shared(cfg1k, 1, 2)
	e, ok := e.DropSharer(cfg1k, 1)
	if !ok || e.State != Shared || e.HasSharer(cfg1k, 1) || !e.HasSharer(cfg1k, 2) {
		t.Fatalf("drop: %+v, %v", e, ok)
	}
	if _, ok := e.DropSharer(cfg1k, 1); ok {
		t.Fatal("dropping an absent sharer reports a drop")
	}
	if e, _ = e.DropSharer(cfg1k, 2); e != Clear() {
		t.Fatalf("last drop should clear, got %+v", e)
	}
	// The owner is not a sharer: fail-stop reclaims it separately.
	if _, ok := SetExclusive(Entry{}, 7).DropSharer(cfg1k, 7); ok {
		t.Fatal("an exclusive owner dropped as a sharer")
	}

	// Coarse at 6 nodes (one node per group): the dead node's bit goes,
	// and the entry clears with its last group.
	six := Config{Nodes: 6}
	e = shared(six, 0, 1, 2, 3, 4)
	if e.State != SharedCoarse {
		t.Fatalf("state %v", e.State)
	}
	e, ok = e.DropSharer(six, 2)
	if !ok || e.HasSharer(six, 2) || !slices.Equal(e.AppendSharers(six, nil), []NodeID{0, 1, 3, 4}) {
		t.Fatalf("coarse drop at 6 nodes: %v, %v", e.AppendSharers(six, nil), ok)
	}
	for _, n := range []NodeID{0, 1, 3} {
		e, _ = e.DropSharer(six, n)
	}
	if e, _ = e.DropSharer(six, 4); e != Clear() {
		t.Fatalf("dropping the last coarse member should clear, got %+v", e)
	}

	// At 43 nodes groups hold two nodes, but node 42's group only one:
	// a drop keeps a shared group's bit and clears the singleton's.
	cfg43 := Config{Nodes: 43}
	e = shared(cfg43, 0, 10, 20, 30, 42)
	e, _ = e.DropSharer(cfg43, 0)
	if !e.HasSharer(cfg43, 0) || !e.HasSharer(cfg43, 1) {
		t.Fatal("dropping node 0 cleared the group node 1 shares")
	}
	e, _ = e.DropSharer(cfg43, 42)
	if e.HasSharer(cfg43, 42) {
		t.Fatal("dropping node 42 kept its one-node group")
	}
}

func TestGroupSizeSmallSystems(t *testing.T) {
	for _, tc := range []struct{ nodes, want int }{
		{1, 1}, {2, 1}, {42, 1}, {43, 2}, {84, 2}, {1024, 25},
	} {
		if got := (Config{Nodes: tc.nodes}).GroupSize(); got != tc.want {
			t.Fatalf("GroupSize(%d) = %d, want %d", tc.nodes, got, tc.want)
		}
	}
}

func TestQuickPointerRoundTrip(t *testing.T) {
	r := sim.NewRNG(11)
	f := func(seed uint32, count uint8) bool {
		rr := r.Split(uint64(seed))
		n := int(count%4) + 1
		e := Clear()
		seen := map[NodeID]bool{}
		for len(seen) < n {
			id := NodeID(rr.Intn(1024))
			seen[id] = true
			e = AddSharer(cfg1k, e, id)
		}
		bits, err := Encode(cfg1k, e)
		if err != nil {
			return false
		}
		got := Decode(cfg1k, bits)
		if len(got.AppendSharers(cfg1k, nil)) != len(seen) {
			return false
		}
		for id := range seen {
			if !got.HasSharer(cfg1k, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecAllocatesNothing: at 1,024 nodes, with every group bit set,
// decoding, adding a sharer, encoding, membership, enumeration into a
// reused slice and a fail-stop drop allocate nothing.
func TestCodecAllocatesNothing(t *testing.T) {
	word := uint64(SharedCoarse)<<42 | cfg1k.liveGroups()
	buf := make([]NodeID, 0, MaxNodes)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		e := Decode(cfg1k, word)
		e = AddSharer(cfg1k, e, 1)
		w, err := Encode(cfg1k, e)
		if err != nil || w != word {
			panic("coarse round trip changed the word")
		}
		if e.HasSharer(cfg1k, 1000) {
			sink++
		}
		sink += len(e.AppendSharers(cfg1k, buf[:0]))
		if e, ok := e.DropSharer(cfg1k, 3); ok && e.State == SharedCoarse {
			sink++
		}
		p := AddSharer(cfg1k, AddSharer(cfg1k, SetExclusive(e, 9), 3), 5)
		if w, _ := Encode(cfg1k, p); w != 0 {
			sink++
		}
	})
	if allocs != 0 {
		t.Fatalf("the codec allocates %.1f objects per round", allocs)
	}
	if sink == 0 {
		t.Fatal("codec results unused")
	}
}

func BenchmarkEncodeDecodePointer(b *testing.B) {
	e := shared(cfg1k, 0, 100, 200, 300)
	for i := 0; i < b.N; i++ {
		bits, _ := Encode(cfg1k, e)
		Decode(cfg1k, bits)
	}
}

func BenchmarkEncodeDecodeCoarse(b *testing.B) {
	e := Clear()
	for i := 0; i < 64; i++ {
		e = AddSharer(cfg1k, e, NodeID(i*16))
	}
	for i := 0; i < b.N; i++ {
		bits, _ := Encode(cfg1k, e)
		Decode(cfg1k, bits)
	}
}
