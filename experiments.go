package proteus

import (
	"io"
	"time"

	"proteus/internal/experiments"
)

// Experiment result types, re-exported for downstream analysis.
type (
	// Fig1aRow is one EfficientNet (device, variant) point of Figure 1a.
	Fig1aRow = experiments.Fig1aRow
	// ConfigPoint is one placement configuration of Figure 1b.
	ConfigPoint = experiments.ConfigPoint
	// SystemResult is one system's outcome in an end-to-end experiment.
	SystemResult = experiments.SystemResult
	// Fig6Point is one (arrival process, batching policy) cell of Figure 6.
	Fig6Point = experiments.Fig6Point
	// Fig8Point is one (system, SLO multiplier) cell of Figure 8.
	Fig8Point = experiments.Fig8Point
	// Fig10Point is one MILP scalability measurement of Figure 10.
	Fig10Point = experiments.Fig10Point
	// Fig10Options parameterize the scalability sweep.
	Fig10Options = experiments.Fig10Options
	// Table2Row is one capability row of the Table 2 feature matrix.
	Table2Row = experiments.Table2Row
	// DesignAblationRow is one configuration of the implementation-level
	// design ablations (switch cost, admission control, fairness).
	DesignAblationRow = experiments.DesignAblationRow
	// AggregationComparison contrasts the exact aggregated MILP with the
	// paper's literal per-device formulation.
	AggregationComparison = experiments.AggregationComparison
	// FaultReport summarizes the graceful-degradation experiment.
	FaultReport = experiments.FaultReport
	// OverloadReport compares overload-guard configurations on one trace.
	OverloadReport = experiments.OverloadReport
)

// Fig1a reproduces Figure 1a (EfficientNet accuracy-throughput trade-off).
func Fig1a() []Fig1aRow { return experiments.Fig1a() }

// Fig1b reproduces Figure 1b (all 3125 placements, Pareto frontier marked).
func Fig1b() []ConfigPoint { return experiments.Fig1b() }

// ParetoFrontier filters Fig1b points to the frontier.
func ParetoFrontier(points []ConfigPoint) []ConfigPoint {
	return experiments.ParetoFrontier(points)
}

// Fig4 reproduces the end-to-end comparison of §6.2.
func Fig4(o ExperimentOptions) ([]SystemResult, error) { return experiments.Fig4(o) }

// Fig5 reproduces the burst-responsiveness experiment of §6.3.
func Fig5(o ExperimentOptions) ([]SystemResult, error) { return experiments.Fig5(o) }

// Fig6 reproduces the adaptive-batching isolation of §6.4.
func Fig6(o ExperimentOptions) ([]Fig6Point, error) { return experiments.Fig6(o) }

// Fig7 reproduces the ablation study of §6.5.
func Fig7(o ExperimentOptions) ([]SystemResult, error) { return experiments.Fig7(o) }

// Fig8 reproduces the SLO sensitivity sweep of §6.6.
func Fig8(o ExperimentOptions) ([]Fig8Point, error) { return experiments.Fig8(o) }

// Fig9 reproduces the per-family breakdown of §6.7.
func Fig9(o ExperimentOptions) (SystemResult, []string, error) { return experiments.Fig9(o) }

// Fig10 reproduces the MILP scalability study of §6.8.
func Fig10(o Fig10Options) ([]Fig10Point, error) { return experiments.Fig10(o) }

// Table2 reproduces the feature-comparison matrix.
func Table2(o ExperimentOptions) ([]Table2Row, error) { return experiments.Table2(o) }

// DesignAblations measures the repository's own design choices (DESIGN.md):
// switch-cost churn control, admission control, and the fairness extension.
func DesignAblations(o ExperimentOptions) ([]DesignAblationRow, error) {
	return experiments.DesignAblations(o)
}

// CompareFormulations contrasts the aggregated and per-device MILP
// formulations on identical instances (same optimum, different solve time).
func CompareFormulations(sizes []int, timeLimit time.Duration) ([]AggregationComparison, error) {
	return experiments.CompareFormulations(sizes, timeLimit)
}

// FaultTolerance runs the graceful-degradation experiment: a quarter of the
// fleet fails for the middle third of the trace and the system degrades
// accuracy instead of availability.
func FaultTolerance(o ExperimentOptions) (FaultReport, error) {
	return experiments.FaultTolerance(o)
}

// OverloadRobustness compares no-guard, shed-only and degrade+shed overload
// configurations on the macro-burst and adversarial stale-plan traces.
func OverloadRobustness(o ExperimentOptions) ([]OverloadReport, error) {
	return experiments.OverloadRobustness(o)
}

// Render helpers writing experiment results as aligned text tables.
var (
	RenderFig1a     = experiments.RenderFig1a
	RenderFig1b     = experiments.RenderFig1b
	RenderSystems   = experiments.RenderSystems
	RenderFig6      = experiments.RenderFig6
	RenderFig8      = experiments.RenderFig8
	RenderFig10     = experiments.RenderFig10
	RenderTable2    = experiments.RenderTable2
	RenderSeriesCSV = experiments.RenderSeriesCSV
	RenderFaults    = experiments.RenderFaults
	RenderOverload  = experiments.RenderOverload
)

// RenderFig9 writes the per-family breakdown table.
func RenderFig9(w io.Writer, r SystemResult, families []string) error {
	return experiments.RenderFig9(w, r, families)
}

// RenderDesignAblations writes the design-ablation table.
var RenderDesignAblations = experiments.RenderDesignAblations

// RenderFormulations writes the MILP formulation comparison.
var RenderFormulations = experiments.RenderFormulations
