package link

import (
	"fmt"
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

// refChannel is the bit-serial form of Channel. Per word it draws
// Bool(0.5) for the inversion bit and then, at a positive BER, one
// Bool(ber) per wire in wire order; it encodes, corrupts, decodes and
// CRC-checks every word of every attempt.
type refChannel struct {
	rng *sim.RNG
	ber float64
	s   Stats
}

func (c *refChannel) word(payload uint32) (uint32, bool) {
	invert := c.rng.Bool(0.5)
	w, ok := EncodeWord(payload, invert)
	if !ok {
		panic("payload overflow")
	}
	if invert {
		c.s.InvertedWords++
	}
	c.s.WordsSent++
	if c.ber > 0 {
		for i := 0; i < WordBits; i++ {
			if c.rng.Bool(c.ber) {
				w ^= 1 << uint(i)
			}
		}
	}
	got, _, ok := DecodeWord(w)
	if !ok {
		c.s.WordErrors++
		return 0, false
	}
	return got, true
}

func (c *refChannel) transmit(frame []byte, maxRetries int) (attempts int, err error) {
	want := refCRC16(frame)
	for attempts = 1; attempts <= maxRetries; attempts++ {
		c.s.FramesSent++
		var rx []byte
		ok := true
		for i := 0; i < len(frame) && ok; i += 2 {
			hi := uint16(frame[i]) << 8
			var lo uint16
			if i+1 < len(frame) {
				lo = uint16(frame[i+1])
			}
			var got uint32
			if got, ok = c.word(JoinPayload(hi|lo, 0)); ok {
				data, _ := SplitPayload(got)
				rx = append(rx, byte(data>>8))
				if i+1 < len(frame) {
					rx = append(rx, byte(data))
				}
			}
		}
		if ok {
			if got, wok := c.word(JoinPayload(want, 1)); wok {
				if rxCRC, _ := SplitPayload(got); refCRC16(rx) == rxCRC {
					return attempts, nil
				}
				c.s.CRCErrors++
			}
		}
		c.s.Retransmits++
	}
	return attempts - 1, fmt.Errorf("link: frame lost after %d attempts", maxRetries)
}

// TestChannelMatchesBitSerialReference runs Channel beside refChannel
// on the same seed, over frames of 1–128 bytes with retry budgets 0–16,
// at BERs from 0 to 0.5, resetting both halfway, and requires the same
// attempts, error and counters after every frame. At every BER the
// frames cross several draw-block ends; at 1e-3 and above many attempts
// corrupt a word, so clean attempts, the word path and the switch
// between them all run.
func TestChannelMatchesBitSerialReference(t *testing.T) {
	const frames = 5000
	buf := make([]byte, 128)
	for _, ber := range []float64{0, 2e-6, 1e-3, 1e-2, 0.5} {
		c := NewChannel(ber, 31)
		ref := &refChannel{rng: sim.NewRNG(31), ber: ber}
		gen := sim.NewRNG(32)
		var words uint64
		for i := 0; i < frames; i++ {
			if i == frames/2 {
				words += c.WordsSent
				c.Reset()
				ref.s = Stats{}
			}
			frame := buf[:1+gen.Intn(len(buf))]
			for k := range frame {
				frame[k] = byte(gen.Uint64())
			}
			budget := gen.Intn(17)
			n, err := c.Transmit(frame, budget)
			wantN, wantErr := ref.transmit(frame, budget)
			if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) || c.Stats() != ref.s {
				t.Fatalf("BER %g frame %d (%d bytes, budget %d): attempts %d, err %v, stats %+v\n"+
					"reference attempts %d, err %v, stats %+v", ber, i, len(frame), budget, n, err, c.Stats(), wantN, wantErr, ref.s)
			}
		}
		if words += c.WordsSent; words < 4*blockWords {
			t.Errorf("BER %g: %d words sent, fewer than four %d-word draw blocks", ber, words, blockWords)
		}
	}
}
