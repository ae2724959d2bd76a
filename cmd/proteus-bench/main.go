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
	"io"
	"os"
	"path/filepath"
	"strings"

	"proteus/internal/experiments"
	"proteus/internal/metrics"
)

// run runs one experiment and writes its table to w. It returns the
// end-to-end system runs whose time series and lifecycle traces -out and
// -trace-dir save, if the experiment has any.
type run func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error)

// experimentList is every experiment in the order -experiment all runs them.
// The -experiment help text and the unknown-name error read it too.
var experimentList = []struct {
	name, title string
	run         run
}{
	{"fig1a", "Figure 1a: EfficientNet accuracy-throughput trade-off per device (batch 1)",
		func(w io.Writer, _ experiments.Options) ([]experiments.SystemResult, error) {
			return nil, experiments.RenderFig1a(w, experiments.Fig1a())
		}},
	{"fig1b", "Figure 1b: 5 variants x 5 devices, all 3125 placements",
		func(w io.Writer, _ experiments.Options) ([]experiments.SystemResult, error) {
			return nil, experiments.RenderFig1b(w, experiments.Fig1b())
		}},
	{"table2", "Table 2: feature comparison",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			rows, err := experiments.Table2(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderTable2(w, rows)
		}},
	{"fig4", "Figure 4: end-to-end comparison on the Twitter-like trace", systems(experiments.Fig4)},
	{"fig5", "Figure 5: responsiveness to macro-bursts", systems(experiments.Fig5)},
	{"fig6", "Figure 6: adaptive batching under uniform / Poisson / Gamma arrivals",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			points, err := experiments.Fig6(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderFig6(w, points)
		}},
	{"fig7", "Figure 7: ablation study", systems(experiments.Fig7)},
	{"fig8", "Figure 8: SLO sensitivity (1x-3.5x)",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			points, err := experiments.Fig8(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderFig8(w, points)
		}},
	{"fig9", "Figure 9: Proteus per-model-family breakdown",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			r, families, err := experiments.Fig9(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderFig9(w, r, families)
		}},
	{"fig10", "Figure 10: MILP scalability (per-device formulation)",
		func(w io.Writer, _ experiments.Options) ([]experiments.SystemResult, error) {
			points, err := experiments.Fig10(experiments.Fig10Options{})
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderFig10(w, points)
		}},
	{"design", "Design ablations: switch-cost churn control, admission control",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			rows, err := experiments.DesignAblations(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderDesignAblations(w, rows)
		}},
	{"overload", "Overload robustness: no-guard vs shed-only vs degrade+shed (bursty + adversarial)",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			reports, err := experiments.OverloadRobustness(o)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderOverload(w, reports)
		}},
	{"formulations", "MILP formulations: exact aggregated vs per-device (same optimum, different cost)",
		func(w io.Writer, _ experiments.Options) ([]experiments.SystemResult, error) {
			rows, err := experiments.CompareFormulations(nil, 0)
			if err != nil {
				return nil, err
			}
			return nil, experiments.RenderFormulations(w, rows)
		}},
	{"faults", "Fault tolerance: a quarter of the fleet fails for the middle third of the trace",
		func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
			rep, err := experiments.FaultTolerance(o)
			if err != nil {
				return nil, err
			}
			return []experiments.SystemResult{rep.Result}, experiments.RenderFaults(w, rep)
		}},
}

// systems is the run of an end-to-end comparison: one table row per system.
func systems(fn func(experiments.Options) ([]experiments.SystemResult, error)) run {
	return func(w io.Writer, o experiments.Options) ([]experiments.SystemResult, error) {
		results, err := fn(o)
		if err != nil {
			return nil, err
		}
		return results, experiments.RenderSystems(w, results)
	}
}

func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return names
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: "+strings.Join(experimentNames(), ", "))
		seconds    = flag.Int("seconds", 300, "end-to-end trace length in seconds")
		clusterSz  = flag.Int("cluster", 20, "cluster size (2:1:1 CPU:1080Ti:V100)")
		seed       = flag.Uint64("seed", 0, "random seed (0 = default)")
		outDir     = flag.String("out", "", "directory for CSV time series (omit to skip)")
		traceDir   = flag.String("trace-dir", "", "directory for per-system lifecycle traces (Chrome trace_event .json + .jsonl; omit to skip)")
	)
	flag.Parse()

	opts := experiments.Options{
		ClusterSize:  *clusterSz,
		TraceSeconds: *seconds,
		Seed:         *seed,
		Trace:        *traceDir != "",
	}

	ran := false
	for _, e := range experimentList {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		section(e.title)
		results, err := e.run(os.Stdout, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proteus-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		writeSeries(*outDir, e.name, results)
		writeTraces(*traceDir, e.name, results)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "proteus-bench: unknown experiment %q (want one of %s)\n",
			*experiment, strings.Join(experimentNames(), ", "))
		os.Exit(2)
	}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// writeTraces dumps each system's lifecycle trace in both export formats:
// Chrome trace_event JSON (chrome://tracing, Perfetto) and JSON lines.
func writeTraces(dir, prefix string, results []experiments.SystemResult) {
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

func writeSeries(dir, prefix string, results []experiments.SystemResult) {
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
		if err := metrics.WriteSeriesCSV(f, r.Name, r.Series); err != nil {
			fmt.Fprintf(os.Stderr, "proteus-bench: %v\n", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
}
