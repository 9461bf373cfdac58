// Command faults runs the P8/OLTP workload under a deterministic
// fault-injection plan — link bit errors healed by CRC retransmission,
// lost protocol messages healed by TSRF timeout recovery, memory bit
// flips healed by SECDED ECC with mirroring failover — and prints the
// Result.Faults counter block. Rerunning with the same seed reproduces
// the identical counters.
package main

import (
	"fmt"
	"time"

	"piranha"
)

func main() {
	plan := piranha.FaultPlan{
		LinkBER:       2e-5, // per-wire-bit corruption probability
		MsgLoss:       5e-4, // per-transaction-leg message loss
		MemFlip:       5e-4, // per-line-read bit-flip probability
		MemDoubleFrac: 0.25, // fraction of flips hitting two bits
		StallProb:     1e-6, // transient node stall per message
		Mirrored:      true, // uncorrectable errors fail over to the mirror
	}

	// Single chip: memory ECC faults and scrub latency.
	res := piranha.Run(piranha.P8(), piranha.OLTP(),
		piranha.WithSeed(7),
		piranha.WithScale(piranha.Scale{Warm: 40, Measure: 120}),
		piranha.WithIntervals(5*time.Microsecond),
		piranha.WithFaults(plan),
	)
	fmt.Println(res)
	fmt.Println(*res.Faults)
	if res.Series.Len() > 0 {
		fmt.Print(res.Series)
	}

	// Two chips: the interconnect is live, so link retransmission, lost
	// messages and TSRF timeout recovery all fire.
	res2 := piranha.Run(piranha.MultiChip(2, 4), piranha.OLTP(),
		piranha.WithName("2xP4 oltp"),
		piranha.WithSeed(7),
		piranha.WithScale(piranha.Scale{Warm: 40, Measure: 120}),
		piranha.WithFaults(plan),
	)
	fmt.Println(res2)
	fmt.Println(*res2.Faults)
}
