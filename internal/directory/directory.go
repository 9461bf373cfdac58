// Package directory implements Piranha's inter-node directory entry
// (paper §2.5.2): 44 bits per 64-byte line stored in the spare ECC bits,
// of which 2 encode the line state and 42 encode the sharing nodes.
//
// Two sharer representations are used, as in the paper:
//
//   - limited pointer: up to 4 explicit 10-bit node IDs (supports 1024
//     nodes); chosen while the line has at most 4 remote sharers.
//   - coarse vector: 42 bits, each covering a fixed group of nodes
//     (ceil(N/42) nodes per bit); chosen past 4 remote sharers.
//
// Directory information is kept at node granularity (not per CPU), and the
// home node's own sharers are NOT recorded in the directory — the home
// chip's L2 duplicate-tag state tracks those (paper: "The directory is not
// used to maintain information about sharers at the home node").
package directory

import (
	"fmt"
	"math/bits"
)

// EntryBits is the width of an encoded directory entry.
const EntryBits = 44

// MaxNodes is the largest system the 10-bit pointers support.
const MaxNodes = 1024

// MaxPointers is the number of explicit sharer pointers before the entry
// switches to the coarse-vector representation.
const MaxPointers = 4

// coarseBits is the number of group bits in coarse-vector form.
const coarseBits = 42

// State is the inter-node sharing state of a line.
type State uint8

// Directory states (2 bits).
const (
	// Uncached: no remote node holds the line.
	Uncached State = iota
	// Shared: one or more remote nodes hold read-only copies,
	// enumerated by explicit pointers.
	Shared
	// SharedCoarse: remote read-only copies tracked by a coarse vector.
	SharedCoarse
	// Exclusive: exactly one remote node holds the line exclusively
	// (clean-exclusive or dirty); its ID is in pointer 0.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case Shared:
		return "shared"
	case SharedCoarse:
		return "shared-coarse"
	case Exclusive:
		return "exclusive"
	}
	return "invalid"
}

// NodeID identifies a Piranha node (processing or I/O chip).
type NodeID uint16

// Entry is a decoded directory entry: the fields of the 44-bit word, not
// an expansion of them. Exclusive holds its owner in Owner; Shared holds
// up to MaxPointers ascending, unique pointers; SharedCoarse holds the
// 42-bit group vector, which lists every node of a marked group, a
// superset of the true sharers exactly as in the hardware. Unused fields
// stay zero, so entries with the same meaning compare equal. Every
// operation on an entry costs O(1) in the machine size, apart from
// listing the sharers it covers.
type Entry struct {
	State State
	n     uint8 // Shared: pointers in use
	Owner NodeID
	ptrs  [MaxPointers]NodeID // Shared: ascending, unique
	vec   uint64              // SharedCoarse: one bit per group of GroupSize nodes
}

// Config carries the system parameters the codec depends on.
type Config struct {
	// Nodes is the number of nodes in the system (<= MaxNodes).
	Nodes int
}

// GroupSize returns the number of nodes covered by one coarse-vector bit.
func (c Config) GroupSize() int {
	g := (c.Nodes + coarseBits - 1) / coarseBits
	if g < 1 {
		g = 1
	}
	return g
}

// groupBit returns node n's coarse-vector bit, or 0 for a node at or
// past Nodes: the vector never covers a node the machine lacks.
func (c Config) groupBit(n NodeID) uint64 {
	if int(n) >= c.Nodes {
		return 0
	}
	return 1 << uint(int(n)/c.GroupSize())
}

// liveGroups returns the mask of coarse-vector bits whose group holds
// at least one node below Nodes.
func (c Config) liveGroups() uint64 {
	g := c.GroupSize()
	return 1<<uint((c.Nodes+g-1)/g) - 1
}

// Encode packs an entry into the low 44 bits of a uint64.
//
// Layout: bits [43:42] hold the state. The 42-bit body depends on state:
// Exclusive stores the owner in bits [9:0]; Shared stores count-1 in bits
// [41:40] and up to four 10-bit pointers in bits [39:0], ascending;
// SharedCoarse stores the 42-bit group vector; Uncached stores zero.
// Pointers at or past cfg.Nodes are dropped, and a shared entry left
// with none encodes as Uncached.
//
//piranha:hotpath
func Encode(cfg Config, e Entry) (uint64, error) {
	if cfg.Nodes > MaxNodes {
		return 0, tooManyNodes(cfg.Nodes)
	}
	var body uint64
	switch e.State {
	case Uncached:
	case Exclusive:
		body = uint64(e.Owner)
	case Shared:
		count := 0
		for _, p := range e.ptrs[:e.n] {
			if int(p) >= cfg.Nodes {
				break // ascending: every later pointer is out of range too
			}
			body |= uint64(p) << (uint(count) * 10)
			count++
		}
		if count == 0 {
			return 0, nil
		}
		body |= uint64(count-1) << 40
	case SharedCoarse:
		body = e.vec
	default:
		return 0, badState(e.State)
	}
	return uint64(e.State)<<42 | body, nil
}

// tooManyNodes and badState keep Encode's error formatting off the hot
// path.
func tooManyNodes(nodes int) error {
	return fmt.Errorf("directory: %d nodes exceeds max %d", nodes, MaxNodes)
}

func badState(s State) error { return fmt.Errorf("directory: invalid state %d", s) }

// Decode unpacks a 44-bit entry. An arbitrary word may carry duplicate
// or unsorted pointers, which come back ascending and unique, and group
// bits past the machine, which are dropped.
//
//piranha:hotpath
func Decode(cfg Config, word uint64) Entry {
	e := Entry{State: State(word >> 42 & 3)}
	body := word & (1<<42 - 1)
	switch e.State {
	case Exclusive:
		e.Owner = NodeID(body & 0x3ff)
	case Shared:
		count := int(body>>40&3) + 1
		for i := 0; i < count; i++ {
			e.insert(NodeID(body >> (uint(i) * 10) & 0x3ff))
		}
	case SharedCoarse:
		e.vec = body & cfg.liveGroups()
	}
	return e
}

// insert adds n to a shared entry's ascending pointers unless present.
// The caller guarantees a free pointer.
func (e *Entry) insert(n NodeID) {
	i := 0
	for i < int(e.n) && e.ptrs[i] < n {
		i++
	}
	if i < int(e.n) && e.ptrs[i] == n {
		return
	}
	copy(e.ptrs[i+1:], e.ptrs[i:e.n])
	e.ptrs[i] = n
	e.n++
}

// AddSharer returns the entry updated to include a new remote sharer,
// switching representation to coarse vector when the pointer capacity is
// exceeded (the paper switches past 4 remote sharing nodes). Adding a
// sharer already present changes nothing.
//
//piranha:hotpath
func AddSharer(cfg Config, e Entry, n NodeID) Entry {
	switch e.State {
	case Uncached:
		return Entry{State: Shared, n: 1, ptrs: [MaxPointers]NodeID{n}}
	case Exclusive:
		// Owner downgrades to sharer alongside the new one.
		e = Entry{State: Shared, n: 1, ptrs: [MaxPointers]NodeID{e.Owner}}
		e.insert(n)
	case Shared:
		if e.hasPointer(n) {
			return e
		}
		if e.n < MaxPointers {
			e.insert(n)
			return e
		}
		vec := cfg.groupBit(n)
		for _, p := range e.ptrs {
			vec |= cfg.groupBit(p)
		}
		return Entry{State: SharedCoarse, vec: vec}
	case SharedCoarse:
		e.vec |= cfg.groupBit(n)
	}
	return e
}

// hasPointer reports whether n is one of a shared entry's pointers.
func (e Entry) hasPointer(n NodeID) bool {
	for _, p := range e.ptrs[:e.n] {
		if p == n {
			return true
		}
	}
	return false
}

// HasSharer reports whether a Shared or SharedCoarse entry lists node n
// as a sharer. A coarse entry lists every node of a marked group.
//
//piranha:hotpath
func (e Entry) HasSharer(cfg Config, n NodeID) bool {
	switch e.State {
	case Shared:
		return e.hasPointer(n)
	case SharedCoarse:
		return e.vec&cfg.groupBit(n) != 0
	}
	return false
}

// AppendSharers appends the sharers of a Shared or SharedCoarse entry
// that are below cfg.Nodes to dst, in ascending order, and returns the
// extended slice. The cost is the number of sharers listed: a coarse
// entry walks its set group bits, not the machine. Hot paths pass a
// reused dst.
//
//piranha:hotpath
func (e Entry) AppendSharers(cfg Config, dst []NodeID) []NodeID {
	switch e.State {
	case Shared:
		for _, p := range e.ptrs[:e.n] {
			if int(p) >= cfg.Nodes {
				break
			}
			dst = append(dst, p)
		}
	case SharedCoarse:
		g := cfg.GroupSize()
		for v := e.vec; v != 0; v &= v - 1 {
			lo := bits.TrailingZeros64(v) * g
			hi := min(lo+g, cfg.Nodes)
			for n := lo; n < hi; n++ {
				dst = append(dst, NodeID(n))
			}
		}
	}
	return dst
}

// DropSharer returns the entry with sharer n removed exactly and whether
// n was listed, for fail-stop reconstruction. A coarse entry keeps n's
// group bit while the group holds another node below cfg.Nodes; an entry
// left with no sharers is Uncached.
//
//piranha:hotpath
func (e Entry) DropSharer(cfg Config, n NodeID) (Entry, bool) {
	switch e.State {
	case Shared:
		for i, p := range e.ptrs[:e.n] {
			if p == n {
				copy(e.ptrs[i:], e.ptrs[i+1:e.n])
				e.n--
				e.ptrs[e.n] = 0
				if e.n == 0 {
					return Clear(), true
				}
				return e, true
			}
		}
	case SharedCoarse:
		bit := cfg.groupBit(n)
		if e.vec&bit == 0 {
			return e, false
		}
		g := cfg.GroupSize()
		if lo := int(n) / g * g; min(lo+g, cfg.Nodes)-lo == 1 {
			e.vec &^= bit
			if e.vec == 0 {
				return Clear(), true
			}
		}
		return e, true
	}
	return e, false
}

// SetExclusive returns the entry reset to a single exclusive remote owner.
func SetExclusive(e Entry, n NodeID) Entry {
	return Entry{State: Exclusive, Owner: n}
}

// Clear returns the uncached entry.
func Clear() Entry { return Entry{State: Uncached} }
