package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"piranha/internal/sim"
)

func l1cfg() Config {
	return Config{SizeBytes: 64 << 10, Ways: 2, Replace: LRU}
}

func TestGeometry(t *testing.T) {
	c := New(l1cfg())
	if got := c.Config().Sets(); got != 512 {
		t.Fatalf("64KB 2-way: %d sets, want 512", got)
	}
	l2 := New(Config{SizeBytes: 128 << 10, Ways: 8, IndexShift: 3, Replace: RoundRobin})
	if got := l2.Config().Sets(); got != 256 {
		t.Fatalf("128KB 8-way bank: %d sets, want 256", got)
	}
}

func TestAddrLineRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := addr.Line()
		return l.Addr() <= addr && addr < l.Addr()+LineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeInsert(t *testing.T) {
	c := New(l1cfg())
	if c.Probe(100) != Invalid {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, Shared)
	if st := c.Probe(100); st != Shared || !c.Has(100) || c.Has(101) {
		t.Fatalf("probe after insert: %v", st)
	}
}

func TestInsertSameLineUpdatesState(t *testing.T) {
	c := New(l1cfg())
	c.Insert(7, Shared)
	c.Insert(7, Modified)
	if c.CountValid() != 1 {
		t.Fatalf("duplicate line: %d valid", c.CountValid())
	}
	if got := c.State(7); got != Modified {
		t.Fatalf("state %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(l1cfg())
	// Three lines mapping to the same set of a 2-way cache.
	// Set index = line & 511, so lines 1, 513, 1025 conflict.
	c.Insert(1, Shared)
	c.Insert(513, Shared)
	c.Probe(1) // make line 1 most recent
	v := c.Insert(1025, Shared)
	if !v.State.Valid() || v.Tag != 513 {
		t.Fatalf("LRU should evict 513, evicted %+v", v)
	}
	if !c.Has(1) || !c.Has(1025) {
		t.Fatal("survivors missing")
	}
}

func TestRoundRobinEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2, Replace: RoundRobin})
	// One set, two ways.
	c.Insert(0, Shared)
	c.Insert(1, Shared)
	v1 := c.Insert(2, Shared)
	v2 := c.Insert(3, Shared)
	if v1.Tag != 0 || v2.Tag != 1 {
		t.Fatalf("round robin evicted %d then %d, want 0 then 1", v1.Tag, v2.Tag)
	}
}

func TestInvalidPreferredOverEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2, Replace: RoundRobin})
	c.Insert(0, Shared)
	c.Insert(1, Shared)
	c.Invalidate(0)
	v := c.Insert(2, Shared)
	if v.State.Valid() {
		t.Fatalf("should fill invalid way, evicted %+v", v)
	}
	if !c.Has(1) {
		t.Fatal("line 1 should survive")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := New(l1cfg())
	c.Insert(5, Modified)
	old := c.Invalidate(5)
	if old.State != Modified {
		t.Fatalf("invalidate returned %v", old.State)
	}
	if c.Has(5) {
		t.Fatal("line still present")
	}
	if c.Invalidate(5).State.Valid() {
		t.Fatal("double invalidate returned valid line")
	}

	c.Insert(6, Exclusive)
	if prev := c.Downgrade(6); prev != Exclusive {
		t.Fatalf("downgrade returned %v", prev)
	}
	if c.State(6) != Shared {
		t.Fatal("not downgraded")
	}
	if prev := c.Downgrade(999); prev != Invalid {
		t.Fatalf("downgrade of absent line returned %v", prev)
	}
}

func TestMESIHelpers(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid() wrong")
	}
	if Shared.CanWrite() || !Modified.CanWrite() || !Exclusive.CanWrite() {
		t.Fatal("CanWrite() wrong")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Fatal("String() wrong")
	}
}

func TestCapacityInvariant(t *testing.T) {
	// Property: after any access sequence, valid lines never exceed
	// capacity and each line appears at most once.
	r := sim.NewRNG(5)
	c := New(Config{SizeBytes: 8 << 10, Ways: 4, Replace: LRU})
	capLines := (8 << 10) / LineBytes
	for i := 0; i < 20000; i++ {
		l := LineAddr(r.Intn(1000))
		switch r.Intn(3) {
		case 0:
			c.Insert(l, MESI(1+r.Intn(3)))
		case 1:
			c.Probe(l)
		case 2:
			c.Invalidate(l)
		}
		if c.CountValid() > capLines {
			t.Fatalf("capacity exceeded at step %d", i)
		}
	}
	seen := map[LineAddr]bool{}
	for _, ln := range c.Contents() {
		if seen[ln.Tag] {
			t.Fatalf("line %d present twice", ln.Tag)
		}
		seen[ln.Tag] = true
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(256, 4)
	a := Addr(0x12344000) // page-aligned (8 KB pages)
	if tlb.Access(a) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(a) || !tlb.Access(a+PageBytes-1) {
		t.Fatal("same page should hit")
	}
	if tlb.Access(a + PageBytes) {
		t.Fatal("next page should miss")
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(256, 4)
	// 64 sets; pages with the same low 6 bits of page number conflict.
	// Fill one set with 5 pages; the first should be evicted.
	base := Addr(0)
	for i := 0; i < 5; i++ {
		tlb.Access(base + Addr(i*64*PageBytes))
	}
	if tlb.Access(base) {
		t.Fatal("LRU page should have been evicted")
	}
}

func BenchmarkProbeHit(b *testing.B) {
	c := New(l1cfg())
	c.Insert(42, Shared)
	for i := 0; i < b.N; i++ {
		c.Probe(42)
	}
}

// refCache is the straightforward model of a cache, one struct per way
// with its own stamp: the victim rules the word-packed Cache must match.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	rrPtr []int
	tick  uint64
}

type refLine struct {
	Line
	used uint64
}

func newRef(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets()), rrPtr: make([]int, cfg.Sets())}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) set(l LineAddr) (int, []refLine) {
	si := int(uint64(l) >> r.cfg.IndexShift & uint64(len(r.sets)-1))
	return si, r.sets[si]
}

func (r *refCache) find(l LineAddr) *refLine {
	_, set := r.set(l)
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == l {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) insert(l LineAddr, st MESI) (victim Line) {
	si, set := r.set(l)
	way := -1
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == l {
			way = i
			break
		}
	}
	for i := range set {
		if way < 0 && !set[i].State.Valid() {
			way = i
		}
	}
	if way < 0 {
		if r.cfg.Replace == RoundRobin {
			way = r.rrPtr[si]
			r.rrPtr[si] = (way + 1) % r.cfg.Ways
		} else {
			way = 0
			for i := 1; i < len(set); i++ {
				if set[i].used < set[way].used {
					way = i
				}
			}
		}
		victim = set[way].Line
	}
	r.tick++
	set[way] = refLine{Line{l, st}, r.tick}
	return victim
}

// TestMatchesReferenceModel drives the packed cache and the reference
// model with one random sequence of probes, inserts, invalidations,
// downgrades and state rewrites, for an LRU and a round-robin geometry,
// and requires every result and the final contents to agree.
func TestMatchesReferenceModel(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4 << 10, Ways: 2, Replace: LRU},
		{SizeBytes: 8 << 10, Ways: 8, IndexShift: 3, Replace: RoundRobin},
	} {
		c, ref := New(cfg), newRef(cfg)
		rng := sim.NewRNG(17)
		for i := 0; i < 50000; i++ {
			l := LineAddr(rng.Intn(600))
			st := MESI(1 + rng.Intn(3))
			var got, want any
			switch rng.Intn(5) {
			case 0:
				got, want = c.Insert(l, st), ref.insert(l, st)
			case 1:
				got, want = c.Probe(l), Invalid
				if ln := ref.find(l); ln != nil {
					ref.tick++
					ln.used, want = ref.tick, ln.State
				}
			case 2:
				got, want = c.Invalidate(l), Line{}
				if ln := ref.find(l); ln != nil {
					want, *ln = ln.Line, refLine{}
				}
			case 3:
				got, want = c.Downgrade(l), Invalid
				if ln := ref.find(l); ln != nil {
					want = ln.State
					if ln.State.CanWrite() {
						ln.State = Shared
					}
				}
			case 4:
				c.SetState(l, st)
				if ln := ref.find(l); ln != nil {
					ln.State = st
				}
				got, want = c.State(l), Invalid
				if ln := ref.find(l); ln != nil {
					want = ln.State
				}
			}
			if got != want {
				t.Fatalf("%v step %d line %d: got %+v, want %+v", cfg.Replace, i, l, got, want)
			}
		}
		var want []Line
		for _, set := range ref.sets {
			for _, ln := range set {
				if ln.State.Valid() {
					want = append(want, ln.Line)
				}
			}
		}
		if got := c.Contents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: contents differ:\n got %v\nwant %v", cfg.Replace, got, want)
		}
	}
}

// TestTLBMatchesReferenceModel replays one random page stream through
// the flat TLB and a per-set model with separate stamp arrays.
func TestTLBMatchesReferenceModel(t *testing.T) {
	const sets, ways = 64, 4
	tlb := NewTLB(sets*ways, ways)
	tags, lru := make([][ways]uint64, sets), make([][ways]uint64, sets)
	for i := range tags {
		tags[i] = [ways]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	tick := uint64(0)
	rng := sim.NewRNG(23)
	for i := 0; i < 50000; i++ {
		page := uint64(rng.Intn(1024))
		si := page % sets
		tick++
		want := false
		way := 0
		for w := 0; w < ways; w++ {
			if tags[si][w] == page {
				want, way = true, w
			}
		}
		if !want {
			for w := 1; w < ways; w++ {
				if lru[si][w] < lru[si][way] {
					way = w
				}
			}
			tags[si][way] = page
		}
		lru[si][way] = tick
		if got := tlb.Access(Addr(page << PageShift)); got != want {
			t.Fatalf("step %d page %d: hit %v, want %v", i, page, got, want)
		}
	}
}
