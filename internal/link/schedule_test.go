package link

import "testing"

// runSchedule pushes 2,000 frames, alternating the 16-byte short and
// 80-byte long packet sizes, through c with an 8-frame retry budget and
// returns the summed attempts. Frame contents vary per frame so the CRC
// word is never constant.
func runSchedule(c *Channel) (attempts int) {
	frame := make([]byte, 80)
	for i := 0; i < 2000; i++ {
		size := 16
		if i&1 == 1 {
			size = 80
		}
		for k := range frame[:size] {
			frame[k] = byte(i*31 + k*7)
		}
		n, _ := c.Transmit(frame[:size], 8)
		attempts += n
	}
	return attempts
}

// TestChannelFaultSchedulePinned pins a fixed-seed channel's counters
// and attempts to values captured from the bit-serial implementation
// (one Bool draw per wire, loop colex rank, bitwise CRC). Every
// inversion, wire flip, CRC catch and retransmit is a function of the
// channel's random draws and their order, so any change to how many
// draws a word consumes, or in what order, moves these numbers — which
// comparing two runs of the same code cannot detect.
func TestChannelFaultSchedulePinned(t *testing.T) {
	cases := []struct {
		ber      float64
		want     Stats
		attempts int
	}{
		// At 1e-2, 76 attempts carry a corrupted word that still decodes
		// to a valid codeword; only the receiver's CRC over the received
		// bytes catches them.
		{1e-2, Stats{WordsSent: 63905, FramesSent: 13028, WordErrors: 12254, CRCErrors: 76, Retransmits: 12330, InvertedWords: 32053}, 13028},
		{1e-3, Stats{WordsSent: 74480, FramesSent: 3557, WordErrors: 1568, CRCErrors: 4, Retransmits: 1572, InvertedWords: 37462}, 3557},
		{2e-6, Stats{WordsSent: 50105, FramesSent: 2004, WordErrors: 4, Retransmits: 4, InvertedWords: 25279}, 2004},
	}
	for _, tc := range cases {
		c := NewChannel(tc.ber, 2024)
		attempts := runSchedule(c)
		if got := c.Stats(); got != tc.want || attempts != tc.attempts {
			t.Errorf("BER %g: stats %+v attempts %d\n want %+v attempts %d",
				tc.ber, got, attempts, tc.want, tc.attempts)
		}
	}
}
