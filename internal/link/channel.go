package link

import (
	"fmt"
	"runtime"

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
// by the interconnect simulator — but an attempt in which a wire flips
// runs the real encode/decode and CRC path word by word.
//
// Each transmitted word takes one draw word from the channel's private
// generator: the inversion bit in bit 31 and the 22-wire error mask in
// the low bits. The draws come in blocks from a helper goroutine that
// NewChannel starts and that alone steps the generator: while Transmit
// reads one block, the helper fills the other. The draws depend on the
// seed alone, never on when the helper runs, so every counter is the
// same at any GOMAXPROCS. Once the channel is unreachable, a finalizer
// closes the helper's request channel and the helper returns.
type Channel struct {
	// cur is the block Transmit reads, from pos on. refill receives the
	// helper's next block from filled and hands cur back through fills,
	// so one buffer is always with the helper.
	cur           []uint32
	pos           int
	fills, filled chan []uint32

	// Stats.
	WordsSent     uint64
	FramesSent    uint64
	WordErrors    uint64 // detected by weight violation
	CRCErrors     uint64 // escaped word detection, caught by CRC
	Retransmits   uint64
	InvertedWords uint64
}

// blockWords is the number of draw words in a block; a channel owns two
// blocks (32 KB).
const blockWords = 4096

// The fields of a draw word.
const (
	invertBit = 1 << 31
	wireMask  = 1<<WordBits - 1
)

// NewChannel returns a channel with the given error rate and RNG seed.
func NewChannel(ber float64, seed uint64) *Channel {
	buf := make([]uint32, 2*blockWords)
	c := &Channel{
		cur:    buf[:blockWords],
		pos:    blockWords, // nothing drawn yet: the first Transmit refills
		fills:  make(chan []uint32, 1),
		filled: make(chan []uint32, 1),
	}
	c.fills <- buf[blockWords:]
	//piranha:allow determinism the helper alone steps the channel's generator, into a buffer Transmit reads only after receiving it from filled; the draws depend on the seed alone
	go drawBlocks(sim.NewRNG(seed), ber, c.fills, c.filled)
	runtime.SetFinalizer(c, func(c *Channel) { close(c.fills) })
	return c
}

// drawBlocks is a channel's helper goroutine. It fills each buffer it
// receives with one draw word per element, in order, and sends the
// buffer back, until fills is closed. Per word it draws the inversion
// bit, then, at a positive ber, one Bernoulli draw per wire in wire
// order (BoolMask packs them without changing them). It holds no
// reference to the Channel, so the channel can be collected.
func drawBlocks(rng *sim.RNG, ber float64, fills <-chan []uint32, filled chan<- []uint32) {
	wires := 0
	if ber > 0 {
		wires = WordBits
	}
	for buf := range fills {
		for i := range buf {
			var d uint32
			if rng.Bool(0.5) { // the randomly-generated 19th bit
				d = invertBit
			}
			buf[i] = d | uint32(rng.BoolMask(wires, ber))
		}
		filled <- buf
	}
}

// refill makes the helper's next block current and gives the finished
// block back to the helper. Each send on filled answers one on fills,
// and one buffer is always with the helper, so neither send blocks.
func (c *Channel) refill() {
	next := <-c.filled
	c.fills <- c.cur
	c.cur, c.pos = next, 0
}

// transmitWord encodes, corrupts (maybe), and decodes one word.
// It reports the received payload and whether the word survived. It
// takes the channel's next draw word. The draw stream keeps its position
// across frames, block ends and Reset, draws already made ahead
// included, so each word gets the draws it got when every word stepped
// the generator itself.
//
//piranha:hotpath
func (c *Channel) transmitWord(payload uint32) (uint32, bool) {
	if c.pos == len(c.cur) {
		c.refill()
	}
	d := c.cur[c.pos]
	c.pos++
	invert := d&invertBit != 0
	w, ok := EncodeWord(payload, invert)
	if !ok {
		panic("link: internal payload overflow")
	}
	if invert {
		c.InvertedWords++
	}
	c.WordsSent++
	got, _, ok := DecodeWord(w ^ d&wireMask)
	if !ok {
		c.WordErrors++
		return 0, false
	}
	return got, true
}

// Transmit sends a frame of bytes across the channel, retrying whole
// frames (go-back-N with window 1, as the piggyback handshake allows)
// until the frame arrives intact or maxRetries is exhausted. It returns
// the number of attempts used.
//
// An attempt whose draws flip no wire is delivered as sent, without the
// code or the CRC: every payload below 2^18 decodes to itself
// (reference_test.go checks every codeword), so the receiver would see
// each word, and so the CRC, unchanged. Any other attempt, and one whose
// words run past the end of the current block, goes word by word.
func (c *Channel) Transmit(frame []byte, maxRetries int) (attempts int, err error) {
	words := (len(frame)+1)/2 + 1 // 16 data bits each, then the CRC word
	for attempts = 1; attempts <= maxRetries; attempts++ {
		c.FramesSent++
		if c.pos == len(c.cur) {
			c.refill()
		}
		clean := c.pos+words <= len(c.cur) && c.deliverClean(words)
		if clean || c.sendWords(frame) {
			return attempts, nil
		}
		c.Retransmits++
	}
	return attempts - 1, fmt.Errorf("link: frame lost after %d attempts", maxRetries)
}

// deliverClean delivers an attempt of n words, which lie in the current
// block, if none of their draws flips a wire, and reports whether it
// did. A delivered attempt counts its words and inversions as the word
// path would.
//
//piranha:hotpath
func (c *Channel) deliverClean(n int) bool {
	var flips, inverted uint32
	for _, d := range c.cur[c.pos : c.pos+n] {
		flips |= d
		inverted += d >> 31
	}
	if flips&wireMask != 0 {
		return false
	}
	c.pos += n
	c.WordsSent += uint64(n)
	c.InvertedWords += uint64(inverted)
	return true
}

// sendWords runs one attempt word by word and reports whether the frame
// arrived intact. The receiver folds each decoded byte into its own CRC,
// so it needs no buffer.
func (c *Channel) sendWords(frame []byte) bool {
	want, rxSum := CRC16(frame), crcInit
	// 16 data bits per word; odd tail byte padded with zero.
	for i := 0; i < len(frame); i += 2 {
		hi := uint16(frame[i]) << 8
		var lo uint16
		if i+1 < len(frame) {
			lo = uint16(frame[i+1])
		}
		got, ok := c.transmitWord(JoinPayload(hi|lo, 0))
		if !ok {
			return false
		}
		data, _ := SplitPayload(got)
		rxSum = crcUpdate(rxSum, byte(data>>8))
		if i+1 < len(frame) {
			rxSum = crcUpdate(rxSum, byte(data))
		}
	}
	// Trailing CRC word.
	got, ok := c.transmitWord(JoinPayload(want, 1))
	if !ok {
		return false
	}
	if rxCRC, _ := SplitPayload(got); rxSum != rxCRC {
		c.CRCErrors++
		return false
	}
	return true
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
// draw stream keeps its position, draws already made ahead included:
// the error sequence is unaffected.
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
