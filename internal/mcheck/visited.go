package mcheck

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Key arena chunk sizes: the first chunk holds 4 KB and each later one
// twice its predecessor, up to 1 MB. A key longer than that gets a chunk
// of its own, sized to fit.
const (
	minChunk = 4 << 10
	maxChunk = 1 << 20
)

// minSlots is the size of the index when the first key is added.
const minSlots = 16

// visitedSet holds the canonical keys of the visited states, numbered
// from 0 in the order they were added, and answers "seen before, and
// under which number". It keeps no Go pointer per key: the keys are
// appended to a few byte chunks that are never copied, each state keeps
// where its key starts and how long it is, and an open-addressing index
// maps a key to its state number. The zero value is an empty set.
type visitedSet struct {
	chunks [][]byte    // the key arena; a full chunk is never reallocated
	spans  paged[span] // per state number, where its key lives
	// slots is the index, a power of two in size and at most 3/4 full. A
	// key's home slot is the top bits of its tag, so growing the index
	// places every entry again from its tag, without reading the arena.
	slots []slot
	shift uint // 32 - log2(len(slots))
}

// span locates one key: its chunk, its offset in that chunk and its
// length. A chunk is opened only for a new key, so there are never more
// chunks than states, and a chunk number fits in 32 bits whenever a
// state number does.
type span struct{ chunk, off, n uint32 }

// slot is one index entry: the key's hash tag, and its state number plus
// one (0 marks an empty slot). A probe reads the arena only when the tag
// matches.
type slot struct{ tag, state uint32 }

// len returns the number of keys stored.
func (v *visitedSet) len() int { return v.spans.len() }

// key returns the key of state id. It aliases the arena: callers must
// not modify or append to it.
func (v *visitedSet) key(id int32) []byte {
	s := v.spans.at(id)
	return v.chunks[s.chunk][s.off : s.off+s.n : s.off+s.n]
}

// lookup returns the state number of k, if k is stored.
func (v *visitedSet) lookup(k []byte) (int32, bool) {
	if len(v.slots) == 0 {
		return 0, false
	}
	i, ok := v.find(k, hashTag(k))
	return int32(v.slots[i].state) - 1, ok
}

// add returns the state number of k and whether k is new; tag must be
// hashTag(k). A new key is copied into the arena and numbered v.len()
// before the call; k itself is not retained.
func (v *visitedSet) add(k []byte, tag uint32) (id int32, added bool) {
	if 4*(v.spans.len()+1) > 3*len(v.slots) {
		v.grow()
	}
	i, ok := v.find(k, tag)
	if ok {
		return int32(v.slots[i].state) - 1, false
	}
	id = int32(v.spans.len())
	v.spans.append(v.store(k))
	v.slots[i] = slot{tag: tag, state: uint32(id) + 1}
	return id, true
}

// find returns the slot holding k and true, or the empty slot that ends
// k's probe sequence and false.
func (v *visitedSet) find(k []byte, tag uint32) (int, bool) {
	mask := len(v.slots) - 1
	for i := int(tag >> v.shift); ; i = (i + 1) & mask {
		s := v.slots[i]
		if s.state == 0 {
			return i, false
		}
		if s.tag == tag && bytes.Equal(v.key(int32(s.state)-1), k) {
			return i, true
		}
	}
}

// grow doubles the index and places every entry again by its tag.
func (v *visitedSet) grow() {
	old := v.slots
	n := max(2*len(old), minSlots)
	v.slots = make([]slot, n)
	v.shift = uint(32 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.state == 0 {
			continue
		}
		i := int(s.tag >> v.shift)
		for v.slots[i].state != 0 {
			i = (i + 1) & mask
		}
		v.slots[i] = s
	}
}

// store appends k to the arena's last chunk, opening a new chunk when k
// does not fit in what is left of it.
func (v *visitedSet) store(k []byte) span {
	c := len(v.chunks) - 1
	if c < 0 || len(k) > cap(v.chunks[c])-len(v.chunks[c]) {
		size := minChunk
		if c >= 0 {
			size = min(2*cap(v.chunks[c]), maxChunk)
		}
		v.chunks = append(v.chunks, make([]byte, 0, max(size, len(k))))
		c++
	}
	off := len(v.chunks[c])
	v.chunks[c] = append(v.chunks[c], k...)
	return span{chunk: uint32(c), off: uint32(off), n: uint32(len(k))}
}

// pageBits sets the page size of a paged array: 1<<pageBits entries.
const pageBits = 12

// paged is an append-only array kept in fixed-size pages, so appending
// never copies what it holds: the per-state arrays of a check grow to
// millions of entries, and regrowing them by append would allocate
// several times their final size. The zero value is empty.
type paged[T any] struct {
	pages [][]T
	n     int
}

func (p *paged[T]) len() int { return p.n }

// at returns a pointer to entry i, which must be below len().
func (p *paged[T]) at(i int32) *T {
	return &p.pages[uint32(i)>>pageBits][uint32(i)&(1<<pageBits-1)]
}

func (p *paged[T]) append(x T) {
	if p.n&(1<<pageBits-1) == 0 {
		p.pages = append(p.pages, make([]T, 1<<pageBits))
	}
	p.pages[p.n>>pageBits][p.n&(1<<pageBits-1)] = x
	p.n++
}

// Multipliers of hashTag. They are fixed, not drawn per process, so the
// index layout, and with it the cost of a check, is the same every run.
const (
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0xbf58476d1ce4e5b9
)

// hashTag hashes a key to 32 bits by a multiply-fold over its 8-byte
// words: each word is folded into the running hash as the xor of the
// high and low halves of a 128-bit product. The length seeds the hash,
// so keys that differ only by trailing zero bytes hash apart.
func hashTag(k []byte) uint32 {
	h := hashSeed ^ uint64(len(k))
	for ; len(k) >= 8; k = k[8:] {
		h = fold(h ^ binary.LittleEndian.Uint64(k))
	}
	var w uint64
	for i, b := range k {
		w |= uint64(b) << (8 * i)
	}
	return uint32(fold(h^w) >> 32)
}

func fold(x uint64) uint64 {
	hi, lo := bits.Mul64(x, hashMul)
	return hi ^ lo
}
