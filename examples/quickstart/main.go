// Quickstart: build a heterogeneous cluster, register two model families,
// and serve a small diurnal workload with Proteus (MILP allocation +
// adaptive batching). Prints the §6.1.4 metrics and the re-allocation
// history.
package main

import (
	"fmt"
	"log"
	"time"

	"proteus"
)

func main() {
	// The Proteus resource manager: exact MILP with a 500ms solve budget.
	alloc, err := proteus.NewAllocator("ilp", &proteus.MILPOptions{
		MaxNodes: 800,
		RelGap:   0.005,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Register two applications: image classification with EfficientNet
	// variants and with MobileNet variants.
	var families []proteus.Family
	for _, f := range proteus.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			families = append(families, f)
		}
	}

	sys, err := proteus.NewSystem(proteus.SystemConfig{
		Cluster:   proteus.ScaledTestbed(8), // 4 CPUs, 2 GTX 1080 Tis, 2 V100s
		Families:  families,
		Allocator: alloc,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A 2-minute demand curve that triples through the run.
	tr := proteus.NewTwitterTrace(proteus.TwitterTraceConfig{
		Seconds:  120,
		BaseQPS:  80,
		PeakQPS:  260,
		Families: proteus.FamilyNames(families),
		Seed:     7,
	})

	res, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== run summary ==")
	fmt.Println(res.Summary)
	fmt.Printf("effective accuracy %.2f%%, max drop %.2f%%, SLO violation ratio %.4f\n",
		res.Summary.EffectiveAccuracy, res.Summary.MaxAccuracyDrop, res.Summary.ViolationRatio)

	fmt.Println("\n== accuracy scaling in action ==")
	for _, p := range res.Plans {
		fmt.Printf("t=%-5v trigger=%-8s predicted-accuracy=%.1f%% hosted=%v\n",
			p.At.Round(time.Second), p.Trigger, p.PredictedAccuracy, p.HostedVariants)
	}
}
