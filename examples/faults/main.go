// Faults: graceful degradation under device failures. A quarter of the
// cluster dies mid-trace and later recovers; the control plane re-allocates
// onto the healthy subset, accuracy scaling absorbs the lost capacity, and
// queries stranded on dead devices are retried instead of silently lost.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"proteus"
)

func main() {
	var fams []proteus.Family
	for _, f := range proteus.Zoo() {
		if f.Name == "efficientnet" || f.Name == "resnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	tr := proteus.NewTwitterTrace(proteus.TwitterTraceConfig{
		Seconds:  240,
		BaseQPS:  200,
		PeakQPS:  420,
		Families: proteus.FamilyNames(fams),
	})

	cl := proteus.ScaledTestbed(8)
	// Kill 25% of the fleet at t=80s; the victims rejoin at t=160s.
	faults := proteus.KillFraction(cl, 0.25, 80*time.Second, 160*time.Second)

	alloc, err := proteus.NewAllocator("ilp", nil)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := proteus.NewSystem(proteus.SystemConfig{
		Cluster:   cl,
		Families:  fams,
		Allocator: alloc,
		Faults:    faults,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== 8-device cluster, 2 devices down from 80s to 160s ==")
	fmt.Println(res.Summary)
	for _, p := range res.Plans {
		if p.Trigger == "failure" || p.Trigger == "recovery" {
			fmt.Printf("  t=%-6v %-8s plan by %s\n", p.At, p.Trigger, p.Solver)
		}
	}

	// The experiment harness wraps the same scenario with phase-split
	// accuracy reporting.
	rep, err := proteus.FaultTolerance(proteus.ExperimentOptions{
		ClusterSize:  8,
		TraceSeconds: 240,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== experiment harness report ==")
	if err := proteus.RenderFaults(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
}
