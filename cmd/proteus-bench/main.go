// Command proteus-bench regenerates the tables and figures of the Proteus
// paper's evaluation (§6). Summary tables go to stdout; time-series data
// for the timeseries figures is written as CSV files under -out.
//
// Usage:
//
//	proteus-bench -experiment all
//	proteus-bench -experiment fig4 -seconds 600 -cluster 20 -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"proteus"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: all, fig1a, fig1b, table2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, design, formulations, overload")
		seconds    = flag.Int("seconds", 300, "end-to-end trace length in seconds")
		clusterSz  = flag.Int("cluster", 20, "cluster size (2:1:1 CPU:1080Ti:V100)")
		seed       = flag.Uint64("seed", 0, "random seed (0 = default)")
		outDir     = flag.String("out", "", "directory for CSV time series (omit to skip)")
		traceDir   = flag.String("trace-dir", "", "directory for per-system lifecycle traces (Chrome trace_event .json + .jsonl; omit to skip)")
		budget     = flag.Int("solver", 800, "MILP solve budget per re-allocation, in branch-and-bound nodes")
	)
	flag.Parse()

	opts := proteus.ExperimentOptions{
		ClusterSize:  *clusterSz,
		TraceSeconds: *seconds,
		Seed:         *seed,
		SolverBudget: *budget,
		Trace:        *traceDir != "",
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "proteus-bench: %s: %v\n", name, err)
		os.Exit(1)
	}

	if want("fig1a") {
		ran = true
		section("Figure 1a: EfficientNet accuracy-throughput trade-off per device (batch 1)")
		if err := proteus.RenderFig1a(os.Stdout, proteus.Fig1a()); err != nil {
			fail("fig1a", err)
		}
	}
	if want("fig1b") {
		ran = true
		section("Figure 1b: 5 variants x 5 devices, all 3125 placements")
		if err := proteus.RenderFig1b(os.Stdout, proteus.Fig1b()); err != nil {
			fail("fig1b", err)
		}
	}
	if want("table2") {
		ran = true
		section("Table 2: feature comparison")
		rows, err := proteus.Table2(opts)
		if err != nil {
			fail("table2", err)
		}
		if err := proteus.RenderTable2(os.Stdout, rows); err != nil {
			fail("table2", err)
		}
	}
	if want("fig4") {
		ran = true
		section("Figure 4: end-to-end comparison on the Twitter-like trace")
		results, err := proteus.Fig4(opts)
		if err != nil {
			fail("fig4", err)
		}
		if err := proteus.RenderSystems(os.Stdout, results); err != nil {
			fail("fig4", err)
		}
		writeSeries(*outDir, "fig4", results)
		writeTraces(*traceDir, "fig4", results)
	}
	if want("fig5") {
		ran = true
		section("Figure 5: responsiveness to macro-bursts")
		results, err := proteus.Fig5(opts)
		if err != nil {
			fail("fig5", err)
		}
		if err := proteus.RenderSystems(os.Stdout, results); err != nil {
			fail("fig5", err)
		}
		writeSeries(*outDir, "fig5", results)
		writeTraces(*traceDir, "fig5", results)
	}
	if want("fig6") {
		ran = true
		section("Figure 6: adaptive batching under uniform / Poisson / Gamma arrivals")
		points, err := proteus.Fig6(opts)
		if err != nil {
			fail("fig6", err)
		}
		if err := proteus.RenderFig6(os.Stdout, points); err != nil {
			fail("fig6", err)
		}
	}
	if want("fig7") {
		ran = true
		section("Figure 7: ablation study")
		results, err := proteus.Fig7(opts)
		if err != nil {
			fail("fig7", err)
		}
		if err := proteus.RenderSystems(os.Stdout, results); err != nil {
			fail("fig7", err)
		}
		writeSeries(*outDir, "fig7", results)
		writeTraces(*traceDir, "fig7", results)
	}
	if want("fig8") {
		ran = true
		section("Figure 8: SLO sensitivity (1x-3.5x)")
		points, err := proteus.Fig8(opts)
		if err != nil {
			fail("fig8", err)
		}
		if err := proteus.RenderFig8(os.Stdout, points); err != nil {
			fail("fig8", err)
		}
	}
	if want("fig9") {
		ran = true
		section("Figure 9: Proteus per-model-family breakdown")
		r, families, err := proteus.Fig9(opts)
		if err != nil {
			fail("fig9", err)
		}
		if err := proteus.RenderFig9(os.Stdout, r, families); err != nil {
			fail("fig9", err)
		}
	}
	if want("fig10") {
		ran = true
		section("Figure 10: MILP scalability (per-device formulation)")
		points, err := proteus.Fig10(proteus.Fig10Options{})
		if err != nil {
			fail("fig10", err)
		}
		if err := proteus.RenderFig10(os.Stdout, points); err != nil {
			fail("fig10", err)
		}
	}
	if want("design") {
		ran = true
		section("Design ablations: switch-cost churn control, admission control, fairness extension")
		rows, err := proteus.DesignAblations(opts)
		if err != nil {
			fail("design", err)
		}
		if err := proteus.RenderDesignAblations(os.Stdout, rows); err != nil {
			fail("design", err)
		}
	}
	if want("overload") {
		ran = true
		section("Overload robustness: no-guard vs shed-only vs degrade+shed (bursty + adversarial)")
		reports, err := proteus.OverloadRobustness(opts)
		if err != nil {
			fail("overload", err)
		}
		if err := proteus.RenderOverload(os.Stdout, reports); err != nil {
			fail("overload", err)
		}
	}
	if want("formulations") {
		ran = true
		section("MILP formulations: exact aggregated vs per-device (same optimum, different cost)")
		rows, err := proteus.CompareFormulations(nil, 0)
		if err != nil {
			fail("formulations", err)
		}
		if err := proteus.RenderFormulations(os.Stdout, rows); err != nil {
			fail("formulations", err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "proteus-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// writeTraces dumps each system's lifecycle trace in both export formats:
// Chrome trace_event JSON (chrome://tracing, Perfetto) and JSON lines.
func writeTraces(dir, prefix string, results []proteus.SystemResult) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
		return
	}
	for _, r := range results {
		if r.Trace == nil {
			continue
		}
		name := strings.ReplaceAll(r.Name, "/", "-")
		for _, ext := range []string{"json", "jsonl"} {
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.%s", prefix, name, ext))
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
				continue
			}
			if ext == "json" {
				err = r.Trace.WriteChromeTrace(f)
			} else {
				err = r.Trace.WriteJSONL(f)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func writeSeries(dir, prefix string, results []proteus.SystemResult) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
		return
	}
	for _, r := range results {
		name := strings.ReplaceAll(r.Name, "/", "-")
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", prefix, name))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
			continue
		}
		if err := proteus.RenderSeriesCSV(f, r.Name, r.Series); err != nil {
			fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
}
