// Command proteus-traces synthesizes workload traces (§6.1.3) and writes
// them as CSV for use with proteus-sim, or summarizes an existing trace.
//
// Usage:
//
//	proteus-traces -kind twitter -seconds 600 -base 180 -peak 560 -out trace.csv
//	proteus-traces -kind bursty -seconds 300 -base 150 -peak 450 -out bursty.csv
//	proteus-traces -inspect trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"proteus/internal/trace"
)

func main() {
	var (
		kind    = flag.String("kind", "twitter", "trace kind: twitter or bursty")
		seconds = flag.Int("seconds", 300, "trace length in seconds")
		base    = flag.Float64("base", 180, "base total QPS")
		peak    = flag.Float64("peak", 560, "peak total QPS")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "output CSV path (required unless -inspect)")
		inspect = flag.String("inspect", "", "summarize an existing trace CSV instead of generating")
	)
	flag.Parse()

	if *inspect != "" {
		f, err := os.Open(*inspect)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f)
		if err != nil {
			fatal(err)
		}
		summarize(tr)
		return
	}

	var tr *trace.Trace
	switch *kind {
	case "twitter":
		tr = trace.NewTwitter(trace.TwitterConfig{
			Seconds: *seconds, BaseQPS: *base, PeakQPS: *peak, Seed: *seed,
		})
	case "bursty":
		tr = trace.NewMacroBurst(trace.MacroBurstConfig{
			Seconds: *seconds, LowQPS: *base, HighQPS: *peak,
		})
	default:
		fatal(fmt.Errorf("unknown trace kind %q", *kind))
	}

	if *out == "" {
		summarize(tr)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d seconds, %d families)\n", *out, tr.Seconds(), len(tr.Families))
	summarize(tr)
}

func summarize(tr *trace.Trace) {
	fmt.Printf("seconds=%d families=%d mean=%.1fqps peak=%.1fqps\n",
		tr.Seconds(), len(tr.Families), tr.MeanQPS(), tr.PeakQPS())
	for f, name := range tr.Families {
		total := 0.0
		for t := 0; t < tr.Seconds(); t++ {
			total += tr.FamilyQPS(t, f)
		}
		fmt.Printf("  %-14s mean=%.1fqps\n", name, total/float64(tr.Seconds()))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "proteus-traces: %v\n", err)
	os.Exit(1)
}
