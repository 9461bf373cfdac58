// Package linemap provides the dense, index-addressed per-line state
// table the memory-system hot paths run on. The simulator's per-line
// coherence bookkeeping — the L2 banks' duplicate-tag records and the
// protocol engines' home-directory entries — is touched by every
// simulated access, and Go's built-in
// map is the wrong structure for it: values are pointer-boxed (one
// heap object per line), lookups hash through runtime indirection, and
// iteration order is randomized. Piranha itself packs directory state
// into the spare ECC bits of each memory line (§2.5.2) precisely
// because per-line metadata must be compact and index-addressed; this
// package is the host-side analogue.
//
// Map is an open-addressed, linear-probed hash table whose slots hold
// each key beside its value in one array, so a probe that finds its key
// has its value on the same host cache line. Two key values no line
// address can take mark empty and deleted slots, and a slot stores its
// key complemented so that a zeroed slot is empty; the capacity is a
// power of two and hashing is multiplicative (Fibonacci). Steady-state
// operations — lookups, overwrites of existing keys, deletes, inserts
// that reuse tombstoned slots, and the rehash that clears tombstones
// when the live entries do not fill the table — allocate nothing;
// growth reallocates the slot array and is amortized over insertions
// exactly like append. Probing is deterministic (no per-process hash
// seed), so table order is a pure function of the operation history —
// one less source of iteration-order randomness, although callers that
// feed output from a table still sort (see Keys).
//
// Pointer validity: Ref and Put return interior pointers into the slot
// array. They remain valid across Get, Delete and a Put that overwrites
// an existing key, but a Put that inserts a NEW key may rehash the
// table and must be assumed to invalidate previously obtained pointers.
// The L2 and protocol-engine call graphs honor this by completing all
// mutations through a pointer before any nested insert can run.
package linemap

import (
	"piranha/internal/cache"
	"piranha/internal/sortutil"
)

// Slot markers. A cache.Addr is a 64-bit byte address, so a line address
// (Addr >> 6) stays below 2^58 and the two largest key values can mark
// slots; Put panics on them. Slots store keys complemented, so the
// markers are stored as 0 and 1 and the zeroed slots make returns are
// empty.
const (
	empty       cache.LineAddr = 0        // never used; terminates probe chains
	deleted     cache.LineAddr = 1        // tombstone; probe chains continue through it
	reservedKey                = ^deleted // the smaller reserved key
)

// minCap is the smallest table allocated (power of two).
const minCap = 16

// slot is one table entry: a complemented line address (or a marker)
// and its value.
type slot[V any] struct {
	inv cache.LineAddr // ^key; empty or deleted when below 2
	val V
}

// Map is a dense hash table from cache.LineAddr to V. The zero value
// is ready to use; New pre-sizes one instead.
type Map[V any] struct {
	slots []slot[V]
	live  int // occupied slots
	used  int // occupied + deleted (probe-chain load)
}

// New returns a Map pre-sized to hold at least hint entries without
// growing.
func New[V any](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		c := minCap
		for c*3 < hint*4 { // keep load factor <= 3/4 at hint entries
			c <<= 1
		}
		m.alloc(c)
	}
	return m
}

// alloc installs a fresh, empty slot array of capacity c (a power of two).
func (m *Map[V]) alloc(c int) {
	m.slots = make([]slot[V], c)
	m.live, m.used = 0, 0
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.live }

// Cap returns the current table capacity. Tests use it to assert that
// steady-state churn recycles slots instead of growing the table.
func (m *Map[V]) Cap() int { return len(m.slots) }

// full reports whether a Put of a new key would rehash the allocated
// table first, growing it or clearing its tombstones.
//
//piranha:hotpath
func (m *Map[V]) full() bool { return len(m.slots) > 0 && (m.used+1)*4 > len(m.slots)*3 }

// index returns the preferred slot for a key: Fibonacci hashing maps
// the full 64-bit key through the golden-ratio multiplier and keeps
// the top bits, which distributes the sequential, low-entropy line
// addresses the simulator generates far better than masking low bits.
//
//piranha:hotpath
func index(key cache.LineAddr, mask uint64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> 32 & mask
}

// find returns the slot holding key, or -1 when the key is absent.
//
//piranha:hotpath
func (m *Map[V]) find(key cache.LineAddr) int {
	if len(m.slots) == 0 || key >= reservedKey {
		return -1
	}
	mask := uint64(len(m.slots) - 1)
	for i := index(key, mask); ; i = (i + 1) & mask {
		switch m.slots[i].inv {
		case ^key:
			return int(i)
		case empty:
			return -1
		}
	}
}

// Ref returns a pointer to the value stored for key, or nil when the
// key is absent. The pointer is valid until the next Put of a new key.
//
//piranha:hotpath
func (m *Map[V]) Ref(key cache.LineAddr) *V {
	if i := m.find(key); i >= 0 {
		return &m.slots[i].val
	}
	return nil
}

// Get returns the value stored for key and whether it was present.
//
//piranha:hotpath
func (m *Map[V]) Get(key cache.LineAddr) (V, bool) {
	if i := m.find(key); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put stores val for key, inserting or overwriting, and returns a
// pointer to the stored value. Overwrites and tombstone reuse are
// allocation-free and move no entry; an insert that needs a fresh slot
// may rehash the table. Put panics on the two key values reserved as
// slot markers.
//
//piranha:hotpath
func (m *Map[V]) Put(key cache.LineAddr, val V) *V {
	if key >= reservedKey {
		panic("linemap: Put of a reserved key (line addresses stop at 2^58)")
	}
	if len(m.slots) == 0 {
		m.alloc(minCap)
	}
	i, found := m.probe(key)
	if !found {
		if m.slots[i].inv == empty {
			if m.full() {
				m.rehash()
				i, _ = m.probe(key) // no tombstones remain: an empty slot
			}
			m.used++
		}
		m.slots[i].inv = ^key
		m.live++
	}
	m.slots[i].val = val
	return &m.slots[i].val
}

// probe walks key's probe chain. It returns the key's slot and true when
// the key is present, and otherwise the slot an insert fills and false:
// the chain's first tombstone, or the empty slot that ends the chain.
//
//piranha:hotpath
func (m *Map[V]) probe(key cache.LineAddr) (int, bool) {
	mask := uint64(len(m.slots) - 1)
	grave := -1
	for i := index(key, mask); ; i = (i + 1) & mask {
		switch m.slots[i].inv {
		case ^key:
			return int(i), true
		case empty:
			if grave >= 0 {
				return grave, false
			}
			return int(i), false
		case deleted:
			if grave < 0 {
				grave = int(i)
			}
		}
	}
}

// Delete removes key if present, leaving a tombstone so probe chains
// through the slot stay intact. Reports whether an entry was removed.
//
//piranha:hotpath
func (m *Map[V]) Delete(key cache.LineAddr) bool {
	i := m.find(key)
	if i < 0 {
		return false
	}
	// Zero the value to drop any pointers it held.
	m.slots[i] = slot[V]{inv: deleted}
	m.live--
	return true
}

// rehash doubles the table when the live entries genuinely fill it, and
// otherwise clears its tombstones in place.
func (m *Map[V]) rehash() {
	if (m.live+1)*2 <= len(m.slots) {
		m.compact()
		return
	}
	old := m.slots
	m.alloc(len(old) << 1)
	for i := range old {
		if s := &old[i]; s.inv > deleted {
			m.Put(^s.inv, s.val)
		}
	}
}

// compact turns every tombstone back into an empty slot in place. An
// emptied tombstone can cut an entry off from its preferred slot, so each
// live entry then moves to the first empty slot on its own probe path,
// if one comes before it. The walk starts just past a slot that was
// empty before any tombstone was cleared (Put keeps a quarter of the
// slots empty): no probe path runs through such a slot, so every entry's
// path lies in the part of the walk already visited, and each path stays
// unbroken once its entry has been placed.
//
//piranha:hotpath
func (m *Map[V]) compact() {
	mask := uint64(len(m.slots) - 1)
	origin := uint64(0)
	for i := range m.slots {
		if m.slots[i].inv == empty {
			origin = uint64(i)
			break
		}
	}
	for i := range m.slots {
		if m.slots[i].inv == deleted {
			m.slots[i].inv = empty
		}
	}
	for n, i := 0, (origin+1)&mask; n < len(m.slots); n, i = n+1, (i+1)&mask {
		s := &m.slots[i]
		if s.inv == empty {
			continue
		}
		for j := index(^s.inv, mask); j != i; j = (j + 1) & mask {
			if t := &m.slots[j]; t.inv == empty {
				*t, *s = *s, slot[V]{}
				break
			}
		}
	}
	m.used = m.live
}

// Reset discards all entries in place, keeping the slot array so a warm
// table can be reused without reallocation.
func (m *Map[V]) Reset() {
	clear(m.slots)
	m.live, m.used = 0, 0
}

// Range calls f for every live entry in table order until f returns
// false. Table order is deterministic for a fixed operation history
// but is NOT sorted; callers feeding simulation output must use Keys.
// The value pointer is valid for the duration of the call.
func (m *Map[V]) Range(f func(key cache.LineAddr, val *V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.inv > deleted && !f(^s.inv, &s.val) {
			return
		}
	}
}

// Keys returns the live keys in ascending order — the deterministic
// iteration the determinism analyzer demands wherever table contents
// feed output, scheduling, or result slices.
func (m *Map[V]) Keys() []cache.LineAddr {
	out := make([]cache.LineAddr, 0, m.live)
	for i := range m.slots {
		if s := &m.slots[i]; s.inv > deleted {
			out = append(out, ^s.inv)
		}
	}
	sortutil.Sort(out)
	return out
}
