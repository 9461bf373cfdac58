package link

import (
	"fmt"

	"piranha/internal/sim"
)

// Physical-layer constants from the paper.
const (
	// WireRateGbps is the per-wire signaling rate (4x the system clock).
	WireRateGbps = 2
	// DataBitsPerWord is the user data carried by each 22-bit word.
	DataBitsPerWord = 16
	// WordsPerInterconnectCycle: the signaling rate is 4x the
	// interconnect clock, so four words move per interconnect cycle,
	// i.e. 64 data bits per cycle per channel direction.
	WordsPerInterconnectCycle = 4
)

// Channel models one direction of an inter-chip link: framing into
// DC-balanced words, CRC protection, error injection, and the piggyback
// retransmission handshake. It is a functional model — timing is handled
// by the interconnect simulator — but it exercises the real encode/decode
// path for every word.
type Channel struct {
	rng *sim.RNG
	// BitErrorRate is the probability that any single wire bit flips
	// during a word transmission.
	BitErrorRate float64

	// Stats.
	WordsSent     uint64
	FramesSent    uint64
	WordErrors    uint64 // detected by weight violation
	CRCErrors     uint64 // escaped word detection, caught by CRC
	Retransmits   uint64
	InvertedWords uint64
}

// NewChannel returns a channel with the given error rate and RNG seed.
func NewChannel(ber float64, seed uint64) *Channel {
	return &Channel{rng: sim.NewRNG(seed), BitErrorRate: ber}
}

// transmitWord encodes, corrupts (maybe), and decodes one word.
// It reports the received payload and whether the word survived.
// The inversion bit is drawn first, then one Bernoulli draw per wire in
// wire order; BoolMask packs the wire draws without changing them.
//
//piranha:hotpath
func (c *Channel) transmitWord(payload uint32) (uint32, bool) {
	invert := c.rng.Bool(0.5) // the randomly-generated 19th bit
	w, err := EncodeWord(payload, invert)
	if err != nil {
		panic("link: internal payload overflow")
	}
	if invert {
		c.InvertedWords++
	}
	c.WordsSent++
	if c.BitErrorRate > 0 {
		w ^= uint32(c.rng.BoolMask(WordBits, c.BitErrorRate))
	}
	got, _, err := DecodeWord(w)
	if err != nil {
		c.WordErrors++
		return 0, false
	}
	return got, true
}

// Transmit sends a frame of bytes across the channel, retrying whole
// frames (go-back-N with window 1, as the piggyback handshake allows)
// until the frame arrives intact or maxRetries is exhausted. It returns
// the number of attempts used.
func (c *Channel) Transmit(frame []byte, maxRetries int) (attempts int, err error) {
	want := CRC16(frame)
	for attempts = 1; attempts <= maxRetries; attempts++ {
		c.FramesSent++
		ok := true
		// CRC of the received bytes, folded in as each word decodes.
		rxSum := crcInit
		// 16 data bits per word; odd tail byte padded with zero.
		for i := 0; i < len(frame); i += 2 {
			hi := uint16(frame[i]) << 8
			var lo uint16
			if i+1 < len(frame) {
				lo = uint16(frame[i+1])
			}
			got, wok := c.transmitWord(JoinPayload(hi|lo, 0))
			if !wok {
				ok = false
				break
			}
			data, _ := SplitPayload(got)
			rxSum = crcUpdate(rxSum, byte(data>>8))
			if i+1 < len(frame) {
				rxSum = crcUpdate(rxSum, byte(data))
			}
		}
		if !ok {
			c.Retransmits++
			continue
		}
		// Trailing CRC word.
		got, wok := c.transmitWord(JoinPayload(want, 1))
		if !wok {
			c.Retransmits++
			continue
		}
		rxCRC, _ := SplitPayload(got)
		if rxSum != rxCRC {
			c.CRCErrors++
			c.Retransmits++
			continue
		}
		return attempts, nil
	}
	return attempts - 1, fmt.Errorf("link: frame lost after %d attempts", maxRetries)
}

// Stats is a snapshot of a channel's counters.
type Stats struct {
	WordsSent     uint64
	FramesSent    uint64
	WordErrors    uint64
	CRCErrors     uint64
	Retransmits   uint64
	InvertedWords uint64
}

// Stats snapshots the channel's counters.
func (c *Channel) Stats() Stats {
	return Stats{
		WordsSent:     c.WordsSent,
		FramesSent:    c.FramesSent,
		WordErrors:    c.WordErrors,
		CRCErrors:     c.CRCErrors,
		Retransmits:   c.Retransmits,
		InvertedWords: c.InvertedWords,
	}
}

// Reset zeroes the counters (e.g. at the warm/measure boundary so
// warm-up corruption doesn't pollute measured-phase statistics). The
// RNG keeps its position: the error sequence is unaffected.
func (c *Channel) Reset() {
	c.WordsSent = 0
	c.FramesSent = 0
	c.WordErrors = 0
	c.CRCErrors = 0
	c.Retransmits = 0
	c.InvertedWords = 0
}

// TransferTime returns how long moving n payload bytes takes on one
// channel direction given the interconnect clock. This is the bandwidth
// component only; routing latency is the interconnect simulator's job.
func TransferTime(n int, icClock sim.Clock) sim.Time {
	words := (n*8 + DataBitsPerWord - 1) / DataBitsPerWord
	cycles := (words + WordsPerInterconnectCycle - 1) / WordsPerInterconnectCycle
	return icClock.Cycles(int64(cycles))
}
