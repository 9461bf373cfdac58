package directory

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"piranha/internal/sim"
)

// nodeSet is a bitset over up to MaxNodes nodes: the sharer set the
// codec once expanded every entry into. It backs the reference codec
// below, which the field codec must match.
type nodeSet [MaxNodes / 64]uint64

func (s *nodeSet) add(n NodeID)      { s[n>>6] |= 1 << (uint(n) & 63) }
func (s *nodeSet) remove(n NodeID)   { s[n>>6] &^= 1 << (uint(n) & 63) }
func (s *nodeSet) has(n NodeID) bool { return s[n>>6]&(1<<(uint(n)&63)) != 0 }

func (s *nodeSet) empty() bool { return *s == nodeSet{} }

func (s *nodeSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// members returns the members below max in ascending order.
func (s *nodeSet) members(max int) []NodeID {
	var out []NodeID
	for n := 0; n < max && n < MaxNodes; n++ {
		if s.has(NodeID(n)) {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// refEntry is the set form of a decoded entry.
type refEntry struct {
	state   State
	owner   NodeID
	sharers nodeSet
}

// refEncode is the set form of Encode: shared pointers are the set's
// members below Nodes in ascending order, coarse bits their groups.
func refEncode(cfg Config, e refEntry) (uint64, error) {
	if cfg.Nodes > MaxNodes {
		return 0, tooManyNodes(cfg.Nodes)
	}
	var body uint64
	switch e.state {
	case Uncached:
	case Exclusive:
		body = uint64(e.owner)
	case Shared:
		m := e.sharers.members(cfg.Nodes)
		if len(m) == 0 {
			return 0, nil
		}
		if len(m) > MaxPointers {
			return 0, errTooManyPointers
		}
		for i, n := range m {
			body |= uint64(n) << (uint(i) * 10)
		}
		body |= uint64(len(m)-1) << 40
	case SharedCoarse:
		for _, n := range e.sharers.members(cfg.Nodes) {
			body |= 1 << uint(int(n)/cfg.GroupSize())
		}
	default:
		return 0, badState(e.state)
	}
	return uint64(e.state)<<42 | body, nil
}

var errTooManyPointers = errors.New("directory: more shared members than pointers")

// refDecode is the set form of Decode: coarse groups expand node by
// node, clamped at Nodes.
func refDecode(cfg Config, word uint64) refEntry {
	e := refEntry{state: State(word >> 42 & 3)}
	body := word & (1<<42 - 1)
	switch e.state {
	case Exclusive:
		e.owner = NodeID(body & 0x3ff)
	case Shared:
		for i := 0; i <= int(body>>40&3); i++ {
			e.sharers.add(NodeID(body >> (uint(i) * 10) & 0x3ff))
		}
	case SharedCoarse:
		g := cfg.GroupSize()
		for b := 0; b < coarseBits; b++ {
			for n := b * g; body&(1<<uint(b)) != 0 && n < (b+1)*g && n < cfg.Nodes; n++ {
				e.sharers.add(NodeID(n))
			}
		}
	}
	return e
}

// refAddSharer is the set form of AddSharer: a fifth member switches
// the state to coarse and keeps the exact set until it is encoded.
func refAddSharer(e refEntry, n NodeID) refEntry {
	switch e.state {
	case Uncached:
		e = refEntry{state: Shared}
		e.sharers.add(n)
	case Exclusive:
		owner := e.owner
		e = refEntry{state: Shared}
		e.sharers.add(owner)
		e.sharers.add(n)
	case Shared:
		e.sharers.add(n)
		if e.sharers.count() > MaxPointers {
			e.state = SharedCoarse
		}
	case SharedCoarse:
		e.sharers.add(n)
	}
	return e
}

// refDrop is the set form of the fail-stop removal: erase n from the
// decoded set, clear an emptied entry, and report whether n was there.
func refDrop(e refEntry, n NodeID) (refEntry, bool) {
	if (e.state != Shared && e.state != SharedCoarse) || !e.sharers.has(n) {
		return e, false
	}
	e.sharers.remove(n)
	if e.sharers.empty() {
		return refEntry{}, true
	}
	return e, true
}

func TestNodeSet(t *testing.T) {
	var s nodeSet
	if !s.empty() {
		t.Fatal("zero set should be empty")
	}
	for _, n := range []NodeID{0, 63, 64, 1023} {
		s.add(n)
	}
	if s.count() != 4 {
		t.Fatalf("count %d", s.count())
	}
	if !s.has(63) || s.has(62) {
		t.Fatal("membership wrong")
	}
	s.remove(63)
	if s.has(63) || s.count() != 3 {
		t.Fatal("remove failed")
	}
	if m := s.members(1024); !slices.Equal(m, []NodeID{0, 64, 1023}) {
		t.Fatalf("members %v", m)
	}
}

// encodes fails the test unless the entry and its reference encode to
// the same word, and returns it.
func encodes(t *testing.T, cfg Config, e Entry, r refEntry, what string) uint64 {
	t.Helper()
	got, err := Encode(cfg, e)
	want, rerr := refEncode(cfg, r)
	if err != nil || rerr != nil || got != want {
		t.Fatalf("%d nodes, %s: Encode(%+v) = %#x, %v; reference %#x, %v",
			cfg.Nodes, what, e, got, err, want, rerr)
	}
	return got
}

// checkWord compares the field codec with the reference on one word:
// the decoded state, owner, sharer enumeration and membership of every
// node id, the re-encoding, adding each sharer in adds and dropping
// each node in drops.
func checkWord(t *testing.T, cfg Config, word uint64, adds, drops []NodeID) {
	t.Helper()
	e, r := Decode(cfg, word), refDecode(cfg, word)
	if e.State != r.state || e.Owner != r.owner {
		t.Fatalf("%d nodes: Decode(%#x) = %+v, reference state %v owner %d", cfg.Nodes, word, e, r.state, r.owner)
	}
	if got, want := e.AppendSharers(cfg, nil), r.sharers.members(cfg.Nodes); !slices.Equal(got, want) {
		t.Fatalf("%d nodes: Decode(%#x) enumerates %v, reference %v", cfg.Nodes, word, got, want)
	}
	for n := NodeID(0); n < MaxNodes; n++ {
		if e.HasSharer(cfg, n) != r.sharers.has(n) {
			t.Fatalf("%d nodes: Decode(%#x).HasSharer(%d) = %v, reference %v",
				cfg.Nodes, word, n, e.HasSharer(cfg, n), r.sharers.has(n))
		}
	}
	encodes(t, cfg, e, r, "re-encode")
	for _, n := range adds {
		encodes(t, cfg, AddSharer(cfg, e, n), refAddSharer(r, n), "add")
	}
	for _, n := range drops {
		ne, ok := e.DropSharer(cfg, n)
		nr, rok := refDrop(r, n)
		if ok != rok {
			t.Fatalf("%d nodes: Decode(%#x).DropSharer(%d) reports %v, reference %v", cfg.Nodes, word, n, ok, rok)
		}
		encodes(t, cfg, ne, nr, "drop")
	}
}

// TestCodecMatchesReferenceSmall covers every word at 2 to 8 nodes
// whose pointers are below Nodes+1 (so out-of-range, duplicate and
// unsorted pointers too), every owner and every group vector, adding
// and dropping every node.
func TestCodecMatchesReferenceSmall(t *testing.T) {
	for nodes := 2; nodes <= 8; nodes++ {
		cfg := Config{Nodes: nodes}
		ids := make([]NodeID, nodes+1)
		for i := range ids {
			ids[i] = NodeID(i)
		}
		var words []uint64
		words = append(words, 0, 1<<42-1) // Uncached ignores its body
		for owner := uint64(0); owner < 1<<10; owner++ {
			words = append(words, uint64(Exclusive)<<42|owner)
		}
		p := uint64(nodes + 1)
		for count := uint64(1); count <= MaxPointers; count++ {
			tuples := uint64(1)
			for i := uint64(0); i < count; i++ {
				tuples *= p
			}
			for tu := uint64(0); tu < tuples; tu++ {
				w := uint64(Shared)<<42 | (count-1)<<40
				for i, x := uint64(0), tu; i < count; i, x = i+1, x/p {
					w |= x % p << (i * 10)
				}
				words = append(words, w)
			}
		}
		for vec := uint64(0); vec < 1<<nodes; vec++ {
			words = append(words, uint64(SharedCoarse)<<42|vec)
		}
		words = append(words, uint64(SharedCoarse)<<42|(1<<42-1))
		for _, w := range words {
			checkWord(t, cfg, w, ids, ids)
		}
	}
}

// randomWord draws a 44-bit word whose pointers fall mostly below
// nodes, so the shared form is exercised where it is valid.
func randomWord(r *sim.RNG, nodes int) uint64 {
	w := r.Uint64() & (1<<EntryBits - 1)
	if State(w>>42) == Shared && r.Bool(0.8) {
		w &^= 1<<40 - 1
		for i := 0; i < MaxPointers; i++ {
			w |= uint64(r.Intn(nodes)) << (uint(i) * 10)
		}
	}
	return w
}

// TestCodecMatchesReferenceRandom compares random words at random node
// counts up to 1024, where coarse groups cover up to 25 nodes and the
// last group may be clamped.
func TestCodecMatchesReferenceRandom(t *testing.T) {
	r := sim.NewRNG(24)
	for i := 0; i < 3000; i++ {
		nodes := 2 + r.Intn(MaxNodes-1)
		if i%4 == 0 {
			nodes = []int{43, 85, 127, 1000, 1023, 1024}[r.Intn(6)]
		}
		cfg := Config{Nodes: nodes}
		w := randomWord(r, nodes)
		adds := []NodeID{NodeID(r.Intn(nodes)), NodeID(r.Intn(MaxNodes)), NodeID(nodes - 1)}
		drops := []NodeID{NodeID(r.Intn(nodes)), NodeID(nodes - 1)}
		e := Decode(cfg, w)
		if m := e.AppendSharers(cfg, nil); len(m) > 0 {
			drops = append(drops, m[r.Intn(len(m))], m[0], m[len(m)-1])
		}
		if e.State == Shared {
			adds = append(adds, e.ptrs[0])
		}
		checkWord(t, cfg, w, adds, drops)
	}
}

// TestAddSharerSequencesMatchReference walks random sequences of the
// operations the home engines apply (AddSharer, SetExclusive, Clear,
// a store and reload through the 44-bit word, and a fail-stop drop of
// a reloaded entry) and compares every step's encoding, and every
// shared entry's pointers, with the reference.
func TestAddSharerSequencesMatchReference(t *testing.T) {
	r := sim.NewRNG(7)
	for walk := 0; walk < 400; walk++ {
		nodes := 2 + r.Intn(MaxNodes-1)
		if walk%3 == 0 {
			nodes = 2 + r.Intn(12)
		}
		cfg := Config{Nodes: nodes}
		e, ref := Clear(), refEntry{}
		for step := 0; step < 60; step++ {
			n := NodeID(r.Intn(nodes))
			if r.Bool(0.05) {
				n = NodeID(r.Intn(MaxNodes))
			}
			switch k := r.Intn(20); {
			case k < 14:
				e, ref = AddSharer(cfg, e, n), refAddSharer(ref, n)
			case k < 15:
				e, ref = SetExclusive(e, n), refEntry{state: Exclusive, owner: n}
			case k < 16:
				e, ref = Clear(), refEntry{}
			case k < 18:
				w := encodes(t, cfg, e, ref, "store")
				e, ref = Decode(cfg, w), refDecode(cfg, w)
			default:
				w := encodes(t, cfg, e, ref, "store")
				e, ref = Decode(cfg, w), refDecode(cfg, w)
				var ok, rok bool
				e, ok = e.DropSharer(cfg, n)
				ref, rok = refDrop(ref, n)
				if ok != rok {
					t.Fatalf("%d nodes, walk %d step %d: DropSharer(%d) reports %v, reference %v",
						nodes, walk, step, n, ok, rok)
				}
			}
			if e.State != ref.state {
				t.Fatalf("%d nodes, walk %d step %d: state %v, reference %v", nodes, walk, step, e.State, ref.state)
			}
			encodes(t, cfg, e, ref, "step")
			if e.State == Shared {
				if got, want := e.ptrs[:e.n], ref.sharers.members(MaxNodes); !slices.Equal(got, want) {
					t.Fatalf("%d nodes, walk %d step %d: pointers %v, reference %v", nodes, walk, step, got, want)
				}
			}
		}
	}
}
