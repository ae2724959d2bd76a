package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// RenderFig1a writes the Figure 1a points as a table.
func RenderFig1a(w io.Writer, rows []Fig1aRow) error {
	t := tw(w)
	fmt.Fprintln(t, "device\tvariant\taccuracy%\tQPS(batch=1)")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%s\t%.1f\t%.1f\n", r.Device, r.Variant, r.Accuracy, r.QPS)
	}
	return t.Flush()
}

// RenderFig1b writes the Pareto frontier of Figure 1b.
func RenderFig1b(w io.Writer, points []ConfigPoint) error {
	frontier := ParetoFrontier(points)
	fmt.Fprintf(w, "configurations: %d, on Pareto frontier: %d\n", len(points), len(frontier))
	t := tw(w)
	fmt.Fprintln(t, "capacityQPS\taccuracy%\tassignment")
	for _, p := range frontier {
		fmt.Fprintf(t, "%.1f\t%.2f\t%v\n", p.CapacityQPS, p.Accuracy, p.Assignment)
	}
	return t.Flush()
}

// RenderSystems writes the end-to-end summary table (Figures 4, 5, 7).
func RenderSystems(w io.Writer, results []SystemResult) error {
	t := tw(w)
	fmt.Fprintln(t, "system\ttput(QPS)\tdemand(QPS)\teff.acc%\tmax.drop%\tviolations\tserved\tlate\tdropped\tloads\tplans\tsolve(ms)")
	for _, r := range results {
		s := r.Summary
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.4f\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			r.Name, s.AvgThroughput, s.AvgDemand, s.EffectiveAccuracy, s.MaxAccuracyDrop,
			s.ViolationRatio, s.Served, s.Late, s.Dropped, r.ModelLoads, r.Plans, r.AvgSolveTime*1e3)
	}
	return t.Flush()
}

// RenderFig6 writes the batching comparison grid.
func RenderFig6(w io.Writer, points []Fig6Point) error {
	t := tw(w)
	fmt.Fprintln(t, "arrivals\tbatching\tviolation ratio\tserved/queries")
	for _, p := range points {
		fmt.Fprintf(t, "%s\t%s\t%.4f\t%d/%d\n", p.Process, p.Batching, p.ViolationRatio, p.Served, p.Queries)
	}
	return t.Flush()
}

// RenderFig8 writes the SLO sensitivity grid.
func RenderFig8(w io.Writer, points []Fig8Point) error {
	t := tw(w)
	fmt.Fprintln(t, "SLO\tsystem\ttput(QPS)\tmax.drop%\tviolations")
	for _, p := range points {
		fmt.Fprintf(t, "%.1fx\t%s\t%.1f\t%.2f\t%.4f\n",
			p.SLOMultiplier, p.System, p.AvgThroughput, p.MaxAccuracyDrop, p.ViolationRatio)
	}
	return t.Flush()
}

// RenderFig9 writes the per-family breakdown of a Proteus run.
func RenderFig9(w io.Writer, r SystemResult, families []string) error {
	t := tw(w)
	fmt.Fprintln(t, "family\ttput(QPS)\teff.acc%\tmax.drop%\tviolations")
	for q, s := range r.PerFamily {
		name := fmt.Sprintf("family-%d", q)
		if q < len(families) {
			name = families[q]
		}
		fmt.Fprintf(t, "%s\t%.1f\t%.2f\t%.2f\t%.4f\n",
			name, s.AvgThroughput, s.EffectiveAccuracy, s.MaxAccuracyDrop, s.ViolationRatio)
	}
	return t.Flush()
}

// RenderFig10 writes the MILP scalability sweep.
func RenderFig10(w io.Writer, points []Fig10Point) error {
	t := tw(w)
	fmt.Fprintln(t, "dimension\tvalue\tsolve time\ttimed out")
	for _, p := range points {
		fmt.Fprintf(t, "%s\t%d\t%v\t%v\n", p.Dimension, p.Value, p.SolveTime.Round(1e6), p.TimedOut)
	}
	return t.Flush()
}

// RenderDesignAblations writes the implementation-level ablation table.
func RenderDesignAblations(w io.Writer, rows []DesignAblationRow) error {
	t := tw(w)
	fmt.Fprintln(t, "configuration\ttput(QPS)\teff.acc%\tmax.drop%\tviolations\tmodel loads")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%.1f\t%.2f\t%.2f\t%.4f\t%d\n",
			r.Name, r.AvgThroughput, r.EffectiveAccuracy, r.MaxAccuracyDrop, r.ViolationRatio, r.ModelLoads)
	}
	return t.Flush()
}

// RenderFormulations writes the aggregated-vs-per-device MILP comparison.
func RenderFormulations(w io.Writer, rows []AggregationComparison) error {
	t := tw(w)
	fmt.Fprintln(t, "devices\taggregated time\tper-device time\tagg acc%\tper-dev acc%")
	for _, r := range rows {
		fmt.Fprintf(t, "%d\t%v\t%v\t%.2f\t%.2f\n",
			r.Devices, r.AggregatedTime.Round(time.Millisecond),
			r.PerDeviceTime.Round(time.Millisecond),
			r.AggregatedAccuracy, r.PerDeviceAccuracy)
	}
	return t.Flush()
}

// RenderTable2 writes the feature-comparison matrix.
func RenderTable2(w io.Writer, rows []Table2Row) error {
	t := tw(w)
	fmt.Fprintln(t, "feature\t"+"Clipper\tSommelier\tINFaaS\tProteus")
	get := func(f func(Table2Row) string) string {
		out := ""
		for i, r := range rows {
			if i > 0 {
				out += "\t"
			}
			out += f(r)
		}
		return out
	}
	fmt.Fprintln(t, "Model placement\t"+get(func(r Table2Row) string { return r.ModelPlacement }))
	fmt.Fprintln(t, "Model selection\t"+get(func(r Table2Row) string { return r.ModelSelection }))
	fmt.Fprintln(t, "Accuracy scaling\t"+get(func(r Table2Row) string { return r.AccuracyScaling }))
	fmt.Fprintln(t, "Adaptive batching\t"+get(func(r Table2Row) string { return r.AdaptiveBatching }))
	return t.Flush()
}
