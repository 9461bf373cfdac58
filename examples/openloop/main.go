// Open-loop example: instead of the paper's closed-loop measurement
// (every server process always has a next transaction — measuring
// capacity), transactions arrive on a seeded stochastic process and
// queue for admission, so the simulator reports what an operator sees:
// arrival→completion tail latency as a function of offered load, the
// hockey stick, and shedding once a bounded queue overflows.
package main

import (
	"fmt"
	"log"

	"piranha"
)

func main() {
	fmt.Println("=== P8/OLTP under a bursty open-loop stream (MMPP, 50k tx/s) ===")
	r := piranha.Run(piranha.P8(), piranha.OLTP(),
		piranha.WithScale(piranha.Scale{Warm: 50, Measure: 150}),
		piranha.WithArrivals(piranha.Arrivals{
			Process:  piranha.ArrivalMMPP,
			Rate:     5e4, // tx per second of simulated time
			Burst:    8,
			Capacity: 256,
		}))
	fmt.Println(r)
	fmt.Println(r.Lat)
	fmt.Printf("admission: %d arrived, %d admitted, %d shed, max queue depth %d\n\n",
		r.Admission.Arrivals, r.Admission.Admitted, r.Admission.Shed, r.Admission.MaxDepth)

	fmt.Println("=== hockey stick: P8/OLTP throughput vs p99 over offered load ===")
	sweep, err := piranha.RunCampaign(piranha.Campaign{
		Sys:   piranha.P8(),
		Work:  piranha.OLTP(),
		Loads: piranha.DefaultLoads,
		Scale: piranha.Scale{Warm: 30, Measure: 90},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sweep)
}
