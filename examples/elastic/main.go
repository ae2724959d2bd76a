// Elastic: the §7 "hardware scaling in tandem" extension — a sustained
// overload on a small fixed cluster, served once with pure accuracy scaling
// and once with elastic provisioning (servers arrive after a start-up
// delay, accuracy scaling carries the burst meanwhile).
package main

import (
	"fmt"
	"log"
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
	// Demand steps up to ~3x the 4-device cluster's comfortable capacity
	// and stays there.
	tr := proteus.NewBurstyTrace(proteus.BurstyTraceConfig{
		Seconds:       300,
		LowQPS:        120,
		HighQPS:       900,
		PeriodSeconds: 150, // one low phase, then a long sustained high phase
		Families:      proteus.FamilyNames(fams),
	})

	run := func(elastic *proteus.ElasticConfig) *proteus.Result {
		alloc, err := proteus.NewAllocator("ilp", nil)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := proteus.NewSystem(proteus.SystemConfig{
			Cluster:   proteus.ScaledTestbed(4),
			Families:  fams,
			Allocator: alloc,
			Elastic:   elastic,
			Seed:      21,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fixed := run(nil)
	elastic := run(&proteus.ElasticConfig{
		MaxExtra:       3,
		Type:           proteus.V100,
		ProvisionDelay: 60 * time.Second,
	})

	fmt.Println("== fixed cluster (pure accuracy scaling) ==")
	fmt.Println(fixed.Summary)
	fmt.Println("\n== elastic cluster (accuracy scaling while servers start) ==")
	fmt.Println(elastic.Summary)
	fmt.Printf("servers provisioned: %d (each after a %v start-up delay)\n",
		elastic.ExtraDevices, 60*time.Second)
	fmt.Printf("\nthroughput %+0.f QPS, violations %.4f -> %.4f: accuracy scaling\n",
		elastic.Summary.AvgThroughput-fixed.Summary.AvgThroughput,
		fixed.Summary.ViolationRatio, elastic.Summary.ViolationRatio)
	fmt.Println("absorbs the burst during provisioning, then the new hardware takes over (§7).")
}
