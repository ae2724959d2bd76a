// Report: run the §6.3 bursty workload with the windowed observability
// stack enabled — device time-series sampling and the multi-window SLO
// burn-rate monitor — then write the run dump (run.json) and render the
// self-contained HTML report (report.html: demand vs served, effective
// accuracy, violation ratio with burn bands, latency percentiles, and the
// per-device utilization heatmap). Both outputs are byte-identical across
// runs with the same seed.
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
	alloc, err := proteus.NewAllocator("ilp", &proteus.MILPOptions{
		MaxNodes: 800, RelGap: 0.005,
	})
	if err != nil {
		log.Fatal(err)
	}

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
	sys, err := proteus.NewSystem(proteus.SystemConfig{
		Cluster:   cl,
		Families:  proteus.Zoo(),
		Allocator: alloc,
		Seed:      11,
		TSDB:      recorder,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary)

	var devices []string
	for _, d := range cl.Devices() {
		devices = append(devices, d.Name)
	}
	dump := proteus.BuildRunDump(proteus.RunDumpInput{
		Label:       "bursty ilp/accscale",
		Seed:        11,
		Collector:   res.Collector,
		Recorder:    recorder,
		Plans:       res.Plans,
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
