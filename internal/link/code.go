// Package link implements the logical layer of Piranha's inter-chip
// channels (paper §2.6.1): each channel is 22 wires per direction at
// 2 Gbit/s/wire, carrying a DC-balanced block code that encodes 19 bits
// per 22-bit word — 16 data bits, 2 bits of CRC/flow-control/error-
// recovery sideband, and a 19th randomly-generated bit encoded by
// inverting the whole word.
//
// The code guarantees that exactly 11 of the 22 wires carry '1' in every
// word (net DC current is zero), and the base set of codewords contains
// no two complementary elements, so whole-word inversion is always
// unambiguous. With the random inversion bit the links are statistically
// DC-balanced in the time domain per wire, making the channel insensitive
// to polarity and usable over fiber or transformer coupling.
package link

import "math/bits"

// Code geometry.
const (
	WordBits    = 22 // wires per direction
	PayloadBits = 18 // data+sideband bits per word
	// CodeBits counts the payload plus the random inversion bit.
	CodeBits = 19
)

// binom[n][k] = C(n,k) for n,k <= WordBits.
var binom [WordBits + 1][WordBits + 1]uint32

// Table-driven colex rank. A weight-11 word's rank is the sum of
// C(p_k, k) over its set bits, the k-th lowest at position p_k. Split at
// bit 10, the low half's terms depend only on its own bits (rankLo); the
// high half's terms also need the number of set bits below it, which is
// 11 minus its own popcount (rankHi). Colex order on equal-weight words
// is numeric order, so the words sharing a high half hi hold consecutive
// ranks from rankHi[hi], and rankHi is strictly increasing for hi >= 1
// (rankHi[0] = 0; hi = 0 has no weight-11 word). loByRank lists the low
// halves of each weight m in rank order, starting at loStart[m].
var (
	rankLo   [1 << 10]uint32
	rankHi   [1 << 11]uint32
	loByRank [1 << 10]uint16
	loStart  [11]uint32
)

func init() {
	for n := 0; n <= WordBits; n++ {
		binom[n][0] = 1
		for k := 1; k <= n; k++ {
			binom[n][k] = binom[n-1][k-1]
			if k <= n-1 {
				binom[n][k] += binom[n-1][k]
			}
		}
	}
	for lo := range rankLo {
		k := 0
		for p := 0; p < 10; p++ {
			if lo&(1<<p) != 0 {
				k++
				rankLo[lo] += binom[p][k]
			}
		}
	}
	for hi := range rankHi {
		k := 11 - bits.OnesCount(uint(hi))
		for q := 0; q < 11; q++ {
			if hi&(1<<q) != 0 {
				k++
				rankHi[hi] += binom[10+q][k]
			}
		}
	}
	for m := 1; m < len(loStart); m++ {
		loStart[m] = loStart[m-1] + binom[10][m-1]
	}
	for lo := range rankLo {
		loByRank[loStart[bits.OnesCount(uint(lo))]+rankLo[lo]] = uint16(lo)
	}
}

// unrank21 returns the index-th 21-bit word with exactly 11 set bits, in
// colexicographic order. Valid for index < C(21,11) = 352716.
//
//piranha:hotpath
func unrank21(index uint32) uint32 {
	// Largest hi with rankHi[hi] <= index; rankHi[0] = 0 bounds it.
	hi := uint32(0)
	for step := uint32(1 << 10); step > 0; step >>= 1 {
		if rankHi[hi+step] <= index {
			hi += step
		}
	}
	weight := 11 - bits.OnesCount32(hi)
	return hi<<10 | uint32(loByRank[loStart[weight]+index-rankHi[hi]])
}

// rank21 is the inverse of unrank21. Valid for 21-bit words with exactly
// 11 set bits, which DecodeWord checks first.
//
//piranha:hotpath
func rank21(w uint32) uint32 {
	return rankLo[w&(1<<10-1)] + rankHi[w>>10]
}

// EncodeWord encodes an 18-bit payload and the random inversion bit into
// a 22-bit DC-balanced word. ok is false, and the word 0, for a payload
// of 2^18 or more.
//
// Base codewords have bit 21 clear and exactly 11 of the remaining 21
// bits set — so every base word is balanced and no base word is the
// complement of another (a complement would have bit 21 set). Setting
// invert transmits the bitwise complement, which is itself balanced.
//
//piranha:hotpath
func EncodeWord(payload uint32, invert bool) (w uint32, ok bool) {
	if payload >= 1<<PayloadBits {
		return 0, false
	}
	w = unrank21(payload) // bit 21 clear; 11 ones among bits 0..20
	if invert {
		w = ^w & ((1 << WordBits) - 1)
	}
	return w, true
}

// DecodeWord recovers the payload and the inversion bit from a received
// word. ok is false for any word that is not a valid codeword (too wide,
// wrong weight or out-of-range rank), which is how single-wire errors
// are detected at the physical layer. It builds no error value, so a
// detected error on the channel's word path allocates nothing.
//
//piranha:hotpath
func DecodeWord(w uint32) (payload uint32, inverted, ok bool) {
	if w >= 1<<WordBits || bits.OnesCount32(w) != 11 {
		return 0, false, false
	}
	if w&(1<<21) != 0 {
		inverted = true
		w = ^w & ((1 << WordBits) - 1)
	}
	payload = rank21(w)
	if payload >= 1<<PayloadBits {
		return 0, false, false
	}
	return payload, inverted, true
}

// SplitPayload separates an 18-bit payload into its 16 data bits and
// 2 sideband (CRC/flow-control) bits.
func SplitPayload(p uint32) (data uint16, side uint8) {
	return uint16(p & 0xffff), uint8(p >> 16 & 3)
}

// JoinPayload combines 16 data bits and 2 sideband bits into a payload.
func JoinPayload(data uint16, side uint8) uint32 {
	return uint32(data) | uint32(side&3)<<16
}

// crcTable[b] is the CRC-16/CCITT-FALSE register contribution of the
// byte b shifted through the top of the register (polynomial 0x1021).
var crcTable [256]uint16

func init() {
	for b := range crcTable {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crcTable[b] = crc
	}
}

// crcInit is the CRC-16/CCITT-FALSE initial register value.
const crcInit uint16 = 0xffff

// crcUpdate folds one byte into a CRC-16/CCITT-FALSE register.
func crcUpdate(crc uint16, b byte) uint16 {
	return crc<<8 ^ crcTable[byte(crc>>8)^b]
}

// CRC16 computes the CRC-16/CCITT-FALSE checksum used to protect packet
// payloads across a channel, one table lookup per byte.
//
//piranha:hotpath
func CRC16(data []byte) uint16 {
	crc := crcInit
	for _, b := range data {
		crc = crcUpdate(crc, b)
	}
	return crc
}
