// Overload: the fast-path guard between control periods. An adversarial
// trace fires demand spikes right after each plan is applied — when the
// solver cannot help for another control period — and the guard sheds
// queries that provably cannot meet their deadline, backpressures flooded
// devices, and degrades routing onto cheaper already-loaded variants while
// the SLO burn monitor stays lit.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"proteus"
)

func main() {
	tr := proteus.NewAdversarialTrace(proteus.AdversarialTraceConfig{
		Seconds:       120,
		BaseQPS:       150,
		SpikeQPS:      420,
		SpikeSeconds:  10,
		PeriodSeconds: 30, // matches the simulator's control period
	})

	alloc, err := proteus.NewAllocator("ilp", nil)
	if err != nil {
		log.Fatal(err)
	}
	// Tight burn windows so the monitor reacts inside a 10s spike.
	recorder := proteus.NewTSDBRecorder(proteus.TSDBConfig{SLO: proteus.SLOConfig{
		Target: 0.01, BurnRate: 2,
		ShortWindow: 2 * time.Second, LongWindow: 8 * time.Second,
	}})
	registry := proteus.NewTelemetryRegistry()
	sys, err := proteus.NewSystem(proteus.SystemConfig{
		Cluster:   proteus.ScaledTestbed(20),
		Families:  proteus.Zoo(),
		Allocator: alloc,
		Seed:      7,
		Telemetry: registry,
		TSDB:      recorder,
		Overload:  &proteus.OverloadConfig{Enabled: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== adversarial spikes with the overload guard on ==")
	fmt.Println(res.Summary)
	fmt.Println("guard counters:")
	if err := registry.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("emergency episodes in the decision audit:")
	for _, p := range res.Plans {
		for _, ov := range p.Overloads {
			fmt.Printf("  t=%-6v family=%d %-8s level=%d (%s)\n",
				ov.At.Round(time.Second), ov.Family, ov.Kind, ov.Level, ov.Reason)
		}
	}

	// The experiment harness runs the full three-way comparison.
	reports, err := proteus.OverloadRobustness(proteus.ExperimentOptions{
		ClusterSize:  20,
		TraceSeconds: 120,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== experiment harness report ==")
	if err := proteus.RenderOverload(os.Stdout, reports); err != nil {
		log.Fatal(err)
	}
}
