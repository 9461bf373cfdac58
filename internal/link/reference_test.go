package link

import (
	"math/bits"
	"testing"

	"piranha/internal/sim"
)

// refUnrank21 is the loop form of unrank21: walk the 21 positions from
// the top, setting a bit whenever the index is past every word that
// leaves it clear.
func refUnrank21(index uint32) uint32 {
	var w uint32
	ones := 11
	for pos := 20; pos >= 0 && ones > 0; pos-- {
		// Words with bit pos clear: C(pos, ones) of the remaining.
		c := binom[pos][ones]
		if index >= c {
			w |= 1 << uint(pos)
			index -= c
			ones--
		}
	}
	return w
}

// refRank21 is the loop form of rank21.
func refRank21(w uint32) uint32 {
	var index uint32
	ones := 11
	for pos := 20; pos >= 0 && ones > 0; pos-- {
		if w&(1<<uint(pos)) != 0 {
			index += binom[pos][ones]
			ones--
		}
	}
	return index
}

// refCRC16 is the bitwise form of CRC16.
func refCRC16(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestRankTablesMatchReference checks the table-driven rank21 and
// unrank21 against the loop forms on all C(21,11) = 352,716 weight-11
// words, in both directions.
func TestRankTablesMatchReference(t *testing.T) {
	n := uint32(0)
	for w := uint32(0); w < 1<<21; w++ {
		if bits.OnesCount32(w) != 11 {
			continue
		}
		if got, want := rank21(w), refRank21(w); got != want {
			t.Fatalf("rank21(%#x) = %d, reference %d", w, got, want)
		}
		if want := n; refRank21(w) != want {
			t.Fatalf("reference rank of %#x = %d, want colex position %d", w, refRank21(w), want)
		}
		if got := unrank21(n); got != w {
			t.Fatalf("unrank21(%d) = %#x, want %#x", n, got, w)
		}
		if got := refUnrank21(n); got != w {
			t.Fatalf("reference unrank(%d) = %#x, want %#x", n, got, w)
		}
		n++
	}
	if n != binom[21][11] {
		t.Fatalf("enumerated %d weight-11 words, want C(21,11) = %d", n, binom[21][11])
	}
}

// TestCRC16MatchesBitwise checks the table-driven CRC16 against the
// bitwise form on random frames of every length from 0 to 300.
func TestCRC16MatchesBitwise(t *testing.T) {
	rng := sim.NewRNG(16)
	buf := make([]byte, 300)
	for n := 0; n <= len(buf); n++ {
		for trial := 0; trial < 4; trial++ {
			for i := range buf[:n] {
				buf[i] = byte(rng.Uint64())
			}
			if got, want := CRC16(buf[:n]), refCRC16(buf[:n]); got != want {
				t.Fatalf("len %d trial %d: CRC16 = %#04x, bitwise %#04x", n, trial, got, want)
			}
		}
	}
}
