package directory

import (
	"slices"
	"testing"
)

// FuzzDirectoryCodec: for any 44-bit word and any node count from 2 to
// 1024, Decode yields ascending, unique pointers, Decode then Encode
// never errors, and an entry whose members are all below Nodes decodes
// back to itself.
func FuzzDirectoryCodec(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(Exclusive)<<42|5, uint16(6))
	f.Add(uint64(Shared)<<42|3<<40|3<<30|2<<20|1<<10, uint16(62))
	f.Add(uint64(Shared)<<42|1<<40|1023<<10|7, uint16(62))
	f.Add(uint64(SharedCoarse)<<42|(1<<42-1), uint16(1022))
	f.Add(uint64(SharedCoarse)<<42|1<<41|1, uint16(98))
	f.Fuzz(func(t *testing.T, word uint64, n uint16) {
		cfg := Config{Nodes: 2 + int(n)%(MaxNodes-1)}
		word &= 1<<EntryBits - 1
		e := Decode(cfg, word)
		ptrs := e.ptrs[:e.n]
		if !slices.IsSorted(ptrs) || len(slices.Compact(slices.Clone(ptrs))) != len(ptrs) {
			t.Fatalf("%d nodes: Decode(%#x) pointers %v are not ascending and unique", cfg.Nodes, word, ptrs)
		}
		re, err := Encode(cfg, e)
		if err != nil {
			t.Fatalf("%d nodes: Decode(%#x) = %+v does not encode: %v", cfg.Nodes, word, e, err)
		}
		inRange := e.State != Exclusive || int(e.Owner) < cfg.Nodes
		for _, p := range ptrs {
			inRange = inRange && int(p) < cfg.Nodes
		}
		if got := Decode(cfg, re); inRange && got != e {
			t.Fatalf("%d nodes: %#x decodes to %+v, which re-encodes to %#x and decodes to %+v",
				cfg.Nodes, word, e, re, got)
		}
	})
}
