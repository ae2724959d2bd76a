// Report: the §6.3 scenario — a workload alternating between flat low and
// flat high demand — served by Proteus and by the Clipper-HA and
// INFaaS-Accuracy baselines, which shows how accuracy scaling absorbs
// macro-bursts that a static high-accuracy allocation cannot. The Proteus
// run also has the windowed observability stack enabled — device
// time-series sampling and the multi-window SLO burn-rate monitor — and its
// run dump (run.json) and self-contained HTML report (report.html: demand
// vs served, effective accuracy, violation ratio with burn bands, latency
// percentiles, and the per-device utilization heatmap) are written to the
// working directory. Both files are byte-identical across runs with the
// same seed.
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

	// The recorder samples every device once a second and watches each
	// family's violation ratio over 5s/60s sliding windows: when both burn
	// the 1% SLO budget at >= 2x, it logs a burn-episode start into the
	// trace and the controller's decision audit.
	recorder := proteus.NewTSDBRecorder(proteus.TSDBConfig{
		SampleInterval: time.Second,
		SLO: proteus.SLOConfig{
			Target:      0.01,
			BurnRate:    2,
			ShortWindow: 5 * time.Second,
			LongWindow:  60 * time.Second,
		},
	})

	cl := proteus.ScaledTestbed(20)
	var results []proteus.SystemResult
	var ilp *proteus.Result
	for _, name := range []string{"clipper-ha", "infaas_v2", "ilp"} {
		alloc, err := proteus.NewAllocator(name, nil)
		if err != nil {
			log.Fatal(err)
		}
		cfg := proteus.SystemConfig{
			Cluster:   cl,
			Families:  proteus.Zoo(),
			Allocator: alloc,
			Seed:      11,
		}
		if name == "ilp" {
			cfg.TSDB = recorder
		}
		sys, err := proteus.NewSystem(cfg)
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
		if name == "ilp" {
			ilp = res
		}
	}

	fmt.Println()
	if err := proteus.RenderSystems(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nProteus responds to each burst with a burst-triggered re-allocation,")
	fmt.Println("trading accuracy for throughput during the high phases (§6.3).")
	fmt.Println()
	fmt.Println(ilp.Summary)

	var devices []string
	for _, d := range cl.Devices() {
		devices = append(devices, d.Name)
	}
	dump := proteus.BuildRunDump(proteus.RunDumpInput{
		Label:       "bursty ilp/accscale",
		Seed:        11,
		Collector:   ilp.Collector,
		Recorder:    recorder,
		Plans:       ilp.Plans,
		DeviceNames: devices,
	})
	if err := dump.WriteFile("run.json"); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("report.html", proteus.RenderRunReport(dump), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote run.json (%d windows, %d samples, %d burn transitions)\n",
		len(dump.Windows), len(dump.Samples), len(dump.Burns))
	fmt.Println("wrote report.html — open it in any browser (no scripts, no external assets)")
	fmt.Println("\nThe same report renders from the saved dump:")
	fmt.Println("  go run ./cmd/proteus-report -dump run.json -o report.html")
}
