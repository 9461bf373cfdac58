package cache

// PageBytes is the virtual-memory page size used by the TLB model.
const PageBytes = 8192

// PageShift is log2(PageBytes).
const PageShift = 13

// TLB models the 256-entry 4-way set-associative translation buffers in
// each L1 module (paper §2.1). Translation itself is identity (the
// simulator works in physical addresses); the TLB exists to charge refill
// latency on a miss.
type TLB struct {
	ents []tlbEntry // set s occupies ents[s*ways : (s+1)*ways]
	ways int
	mask uint64 // set count - 1
	tick uint64
}

// tlbEntry is one way: its page number (^0 when empty) beside its LRU
// stamp, so a 4-way set is one 64-byte host line.
type tlbEntry struct {
	page uint64
	lru  uint64
}

// NewTLB returns an empty TLB with entries total entries and ways ways.
func NewTLB(entries, ways int) *TLB {
	sets := entries / ways
	t := &TLB{ents: make([]tlbEntry, sets*ways), ways: ways, mask: uint64(sets - 1)}
	for i := range t.ents {
		t.ents[i].page = ^uint64(0)
	}
	return t
}

// Access touches the page containing a and reports whether it hit.
// On a miss the translation is filled (evicting LRU).
//
//piranha:hotpath
func (t *TLB) Access(a Addr) bool {
	page := uint64(a) >> PageShift
	base := int(page&t.mask) * t.ways
	set := t.ents[base : base+t.ways]
	t.tick++
	for i := range set {
		if set[i].page == page {
			set[i].lru = t.tick
			return true
		}
	}
	way := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[way].lru {
			way = i
		}
	}
	set[way] = tlbEntry{page: page, lru: t.tick}
	return false
}
