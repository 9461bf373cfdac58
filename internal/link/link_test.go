package link

import (
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"piranha/internal/sim"
)

func TestEncodeBalance(t *testing.T) {
	// Every codeword, inverted or not, must have exactly 11 of 22 wires
	// high — the paper's DC-balance guarantee.
	for _, p := range []uint32{0, 1, 1000, 1 << 17, 1<<18 - 1} {
		for _, inv := range []bool{false, true} {
			w, ok := EncodeWord(p, inv)
			if !ok {
				t.Fatalf("payload %d rejected", p)
			}
			if bits.OnesCount32(w) != 11 {
				t.Fatalf("payload %d inv=%v: weight %d", p, inv, bits.OnesCount32(w))
			}
		}
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(p uint32, inv bool) bool {
		p %= 1 << PayloadBits
		w, ok := EncodeWord(p, inv)
		if !ok {
			return false
		}
		got, gotInv, ok := DecodeWord(w)
		return ok && got == p && gotInv == inv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNoComplementaryBaseCodewords(t *testing.T) {
	// Base (non-inverted) codewords all have bit 21 clear, so no base
	// codeword can be the complement of another. Spot-check densely at
	// the range ends and sparsely in between.
	seen := make(map[uint32]bool)
	check := func(p uint32) {
		w, ok := EncodeWord(p, false)
		if !ok {
			t.Fatalf("payload %d rejected", p)
		}
		if w&(1<<21) != 0 {
			t.Fatalf("base codeword for %d has MSB set", p)
		}
		comp := ^w & (1<<WordBits - 1)
		if seen[comp] {
			t.Fatalf("complementary pair found at payload %d", p)
		}
		seen[w] = true
	}
	for p := uint32(0); p < 4096; p++ {
		check(p)
	}
	for p := uint32(0); p < 1<<PayloadBits; p += 997 {
		check(p)
	}
	check(1<<PayloadBits - 1)
}

func TestEncodeUniqueness(t *testing.T) {
	// Distinct payloads must map to distinct codewords (dense prefix).
	seen := make(map[uint32]uint32)
	for p := uint32(0); p < 50000; p++ {
		w, ok := EncodeWord(p, false)
		if !ok {
			t.Fatalf("payload %d rejected", p)
		}
		if prev, dup := seen[w]; dup {
			t.Fatalf("payloads %d and %d share codeword %#x", prev, p, w)
		}
		seen[w] = p
	}
}

func TestDecodeRejectsUnbalanced(t *testing.T) {
	if _, _, ok := DecodeWord(0); ok {
		t.Fatal("all-zero word accepted")
	}
	if _, _, ok := DecodeWord(1<<WordBits - 1); ok {
		t.Fatal("all-one word accepted")
	}
	// A single-wire error always breaks the weight and must be detected.
	w, _ := EncodeWord(12345, false)
	for bit := 0; bit < WordBits; bit++ {
		if _, _, ok := DecodeWord(w ^ 1<<uint(bit)); ok {
			t.Fatalf("single-wire error at bit %d not detected", bit)
		}
	}
}

// TestCodecRejectsOutOfRange: EncodeWord refuses a payload of 2^18 or
// more, and DecodeWord refuses the two malformed words of weight 11 that
// pass the balance test: one wider than 22 bits, and a base word whose
// rank is past the payload range.
func TestCodecRejectsOutOfRange(t *testing.T) {
	if _, ok := EncodeWord(1<<PayloadBits, false); ok {
		t.Fatal("payload 2^18 encoded")
	}
	if _, _, ok := DecodeWord(1<<WordBits | (1<<10 - 1)); ok {
		t.Fatal("23-bit word of weight 11 decoded")
	}
	if _, _, ok := DecodeWord(unrank21(1 << PayloadBits)); ok {
		t.Fatal("base word of rank 2^18 decoded")
	}
}

func TestInversionInsensitive(t *testing.T) {
	// The receiver recovers the same payload regardless of the random
	// inversion bit — the property that permits fiber/transformer links.
	f := func(p uint32) bool {
		p %= 1 << PayloadBits
		w0, _ := EncodeWord(p, false)
		w1, _ := EncodeWord(p, true)
		if w1 != ^w0&(1<<WordBits-1) {
			return false
		}
		d0, _, ok0 := DecodeWord(w0)
		d1, _, ok1 := DecodeWord(w1)
		return ok0 && ok1 && d0 == p && d1 == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadSplitJoin(t *testing.T) {
	f := func(d uint16, s uint8) bool {
		s &= 3
		gd, gs := SplitPayload(JoinPayload(d, s))
		return gd == d && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29b1 {
		t.Fatalf("CRC16 = %#x, want 0x29b1", got)
	}
	if CRC16(nil) != 0xffff {
		t.Fatal("CRC of empty input should be the initial value")
	}
}

func TestChannelCleanTransmission(t *testing.T) {
	c := NewChannel(0, 1)
	frame := []byte("piranha short packet payload....")
	attempts, err := c.Transmit(frame, 4)
	if err != nil || attempts != 1 {
		t.Fatalf("clean channel: attempts=%d err=%v", attempts, err)
	}
	if c.WordErrors != 0 || c.Retransmits != 0 {
		t.Fatalf("clean channel recorded errors: %+v", c.Stats())
	}
}

func TestChannelRecoversFromErrors(t *testing.T) {
	c := NewChannel(0.002, 7)
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i * 3)
	}
	fails := 0
	for i := 0; i < 200; i++ {
		if _, err := c.Transmit(frame, 50); err != nil {
			fails++
		}
	}
	if fails != 0 {
		t.Fatalf("%d frames lost despite retransmission", fails)
	}
	if c.Retransmits == 0 {
		t.Fatal("expected some retransmissions at BER 0.002")
	}
	if c.WordErrors == 0 {
		t.Fatal("expected word-level error detections")
	}
}

func TestChannelInversionStatistics(t *testing.T) {
	c := NewChannel(0, 99)
	frame := make([]byte, 2048)
	if _, err := c.Transmit(frame, 1); err != nil {
		t.Fatal(err)
	}
	// The random 19th bit should invert roughly half the words.
	frac := float64(c.InvertedWords) / float64(c.WordsSent)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("inversion fraction %v, want ~0.5", frac)
	}
}

func TestTransferTime(t *testing.T) {
	ic := sim.MHz(500)
	// Short packet: 128 bits = 8 words = 2 interconnect cycles.
	if got := TransferTime(16, ic); got != ic.Cycles(2) {
		t.Fatalf("short packet time %d, want %d", got, ic.Cycles(2))
	}
	// Long packet: 128+512 bits = 40 words = 10 cycles.
	if got := TransferTime(80, ic); got != ic.Cycles(10) {
		t.Fatalf("long packet time %d, want %d", got, ic.Cycles(10))
	}
}

func BenchmarkEncodeWord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		EncodeWord(uint32(i)&(1<<PayloadBits-1), i&1 == 0)
	}
}

func BenchmarkDecodeWord(b *testing.B) {
	w, _ := EncodeWord(123456, false)
	for i := 0; i < b.N; i++ {
		DecodeWord(w)
	}
}

// TestTransmitCleanFrameAllocatesNothing: once a channel is built,
// transmitting frames that arrive within their retry budget allocates
// nothing, however many of their words were corrupted. At BER 1e-3 most
// 80-byte frames have an attempt cut short by a detected word error.
// The check counts every allocation in the process across 5,000 frames
// after a warm-up, 50 or more draw blocks, so a helper goroutine or a
// closure made per block fails it too. It allows maxRuntime: with more
// than one CPU, the runtime's per-CPU caches of the records it makes
// for a blocked channel operation (sudogs) allocate now and then when
// the goroutines move between CPUs (1 to 3 allocations in about 2% of
// windows at GOMAXPROCS 2 and 4, none at 1).
func TestTransmitCleanFrameAllocatesNothing(t *testing.T) {
	const maxRuntime = 10
	frame := make([]byte, 80)
	for _, ber := range []float64{0, 1e-3} {
		c := NewChannel(ber, 1)
		send := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := c.Transmit(frame, 64); err != nil {
					t.Fatal(err)
				}
			}
		}
		send(500)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		send(5000)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > maxRuntime {
			t.Fatalf("BER %g: 5,000 delivered frames allocated %d times, want at most %d", ber, n, maxRuntime)
		}
		if ber > 0 && c.WordErrors == 0 {
			t.Fatalf("BER %g: no word errors, so the word path never failed a word", ber)
		}
	}
}

// TestChannelHelperEndsWithChannel: each channel runs one helper
// goroutine, and the helper returns once the channel is unreachable and
// collected, so runs that build channels leave no goroutines behind.
func TestChannelHelperEndsWithChannel(t *testing.T) {
	const n = 8
	// settle runs collections, which queue the finalizers of dropped
	// channels, until at most want goroutines remain or about a second
	// has passed, and returns the count.
	settle := func(want, rounds int) int {
		got := runtime.NumGoroutine()
		for i := 0; i < rounds && got > want; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
			got = runtime.NumGoroutine()
		}
		return got
	}
	base := settle(0, 10) // ends the helpers of channels earlier tests dropped
	func() {
		frame := make([]byte, 80)
		live := make([]*Channel, n)
		for i := range live {
			live[i] = NewChannel(1e-3, uint64(i))
			for j := 0; j < 200; j++ {
				live[i].Transmit(frame, 16)
			}
		}
		if got := runtime.NumGoroutine(); got < base+n {
			t.Fatalf("%d goroutines with %d channels live, want at least %d", got, n, base+n)
		}
	}()
	if got := settle(base, 1000); got > base {
		t.Fatalf("%d goroutines after the channels were dropped, want at most %d", got, base)
	}
}

// BenchmarkTransmit measures Channel.Transmit on alternating 16-byte
// short and 80-byte long packets at the serve-chaos wire error rate.
func BenchmarkTransmit(b *testing.B) {
	c := NewChannel(2e-6, 1)
	frame := make([]byte, 80)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := 16
		if i&1 == 1 {
			size = 80
		}
		frame[0] = byte(i)
		if _, err := c.Transmit(frame[:size], 16); err != nil {
			b.Fatal(err)
		}
	}
}
