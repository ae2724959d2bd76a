// Bursty: the §6.3 scenario — a workload alternating between flat low and
// flat high demand — served by Proteus and by the INFaaS-Accuracy and
// Clipper-HA baselines. Shows how accuracy scaling absorbs macro-bursts
// that a static high-accuracy allocation cannot.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"proteus"
)

func main() {
	tr := proteus.NewBurstyTrace(proteus.BurstyTraceConfig{
		Seconds:       240,
		LowQPS:        120,
		HighQPS:       420,
		PeriodSeconds: 60,
	})
	fmt.Printf("trace: %ds alternating %0.f/%0.f QPS\n\n", tr.Seconds(), 120.0, 420.0)

	var results []proteus.SystemResult
	for _, name := range []string{"clipper-ha", "infaas_v2", "ilp"} {
		alloc, err := proteus.NewAllocator(name, &proteus.MILPOptions{
			MaxNodes: 800, RelGap: 0.005,
		})
		if err != nil {
			log.Fatal(err)
		}
		sys, err := proteus.NewSystem(proteus.SystemConfig{
			Cluster:   proteus.ScaledTestbed(20),
			Families:  proteus.Zoo(),
			Allocator: alloc,
			Seed:      11,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, proteus.SystemResult{
			Name:       name,
			Summary:    res.Summary,
			Series:     res.Collector.Series(-1),
			ModelLoads: res.ModelLoads,
			Plans:      len(res.Plans),
		})
		// Per-burst responsiveness: when did re-allocations fire?
		fmt.Printf("%s re-allocations:", name)
		for _, p := range res.Plans {
			fmt.Printf(" %v(%s)", p.At.Round(time.Second), p.Trigger)
		}
		fmt.Println()
	}

	fmt.Println()
	if err := proteus.RenderSystems(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nProteus responds to each burst with a burst-triggered re-allocation,")
	fmt.Println("trading accuracy for throughput during the high phases (§6.3).")
}
