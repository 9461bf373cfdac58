// Command chaos composes the failure machinery end to end: an open-loop
// arrival stream with a retry budget, an SLO accountant, and a fail-stop
// node death mid-measurement — then a full composed campaign (load
// multipliers × fault-rate grid) printing the degradation surface an
// operator would capacity-plan from. Everything is seeded: rerunning
// reproduces identical output, byte for byte.
package main

import (
	"fmt"
	"time"

	"piranha"
)

func main() {
	fmt.Println("=== 2xP4/OLTP: node 1 fail-stops 100us into the measured window ===")
	plan := piranha.FaultPlan{
		MsgLoss:  1e-4, // background message loss healed by TSRF recovery
		Mirrored: true, // the RAS mirror adopts the dead node's home lines
		FailStop: []piranha.NodeFailure{{Node: 1, At: 100 * piranha.Microsecond}},
	}
	res := piranha.Run(piranha.MultiChip(2, 4), piranha.OLTP(),
		piranha.WithName("2xP4 oltp failstop"),
		piranha.WithSeed(7),
		piranha.WithScale(piranha.Scale{Warm: 30, Measure: 120}),
		piranha.WithArrivals(piranha.Arrivals{
			Process:     piranha.ArrivalPoisson,
			Rate:        3e4, // tx per second of simulated time
			Capacity:    256,
			RetryBudget: 2, // shed work re-offers twice with exponential backoff
		}),
		piranha.WithSLO(1500*time.Microsecond, 0.1),
		piranha.WithFaults(plan),
	)
	fmt.Println(res)
	if rec := res.Recovery; rec != nil {
		for _, ev := range rec.Events {
			fmt.Printf("recovery: node %d  mttr %v  migrated %d procs  "+
				"homes adopted %d  sharers dropped %d  owners reclaimed %d\n",
				ev.Node, time.Duration(ev.MTTR()/piranha.Nanosecond)*time.Nanosecond,
				ev.Migrated, ev.HomesAdopted, ev.SharersDropped, ev.OwnerReclaims)
		}
		fmt.Printf("capacity after failure: %.0f%% of CPUs alive\n", rec.CapacityFrac*100)
	}
	if res.SLO != nil {
		fmt.Println(res.SLO)
	}
	fmt.Printf("admission: %d arrived, %d admitted, %d shed (%d after retry exhaustion)\n\n",
		res.Admission.Arrivals, res.Admission.Admitted,
		res.Admission.Shed, res.Admission.RetryExhausted)

	fmt.Println("=== composed campaign: load x fault grid with a mid-run death ===")
	surface := piranha.RunChaosSweep(piranha.MultiChip(2, 4), piranha.OLTP(),
		piranha.ChaosSweep{
			Multipliers: []float64{0.5, 1.1},
			FaultMults:  []float64{0, 1},
			Plan:        plan,
			Arrivals:    piranha.Arrivals{Capacity: 256, RetryBudget: 2},
			Scale:       piranha.Scale{Warm: 30, Measure: 60},
			Seed:        7,
		})
	fmt.Println(surface)
}
