package experiments

import (
	"fmt"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// SystemResult is one serving system's outcome on a trace.
type SystemResult struct {
	Name      string
	Summary   metrics.Summary
	PerFamily []metrics.Summary
	Series    []metrics.Point
	// FamilySeries[q] is the per-family time series (Fig. 9).
	FamilySeries [][]metrics.Point
	ModelLoads   int
	Plans        int
	// AvgSolveTime is the mean resource-manager solve time (§6.8).
	AvgSolveTime float64 // seconds
	// Trace holds the run's lifecycle events when Options.Trace is set.
	Trace *telemetry.Tracer
}

func runOne(o Options, name string, batch batching.Factory, tr *trace.Trace) (SystemResult, error) {
	sys, tracer, err := o.newSystem(allocNameOf(name), batch, o.Seed+1)
	if err != nil {
		return SystemResult{}, err
	}
	res, err := sys.Run(tr)
	if err != nil {
		return SystemResult{}, fmt.Errorf("experiments: system %s: %w", name, err)
	}
	out := SystemResult{
		Name:       name,
		Summary:    res.Summary,
		PerFamily:  res.PerFamily,
		Series:     res.Collector.Series(-1),
		ModelLoads: res.ModelLoads,
		Plans:      len(res.Plans),
		Trace:      tracer,
	}
	for q := range res.PerFamily {
		out.FamilySeries = append(out.FamilySeries, res.Collector.Series(q))
	}
	if len(res.Plans) > 0 {
		total := 0.0
		for _, p := range res.Plans {
			total += p.SolveTime.Seconds()
		}
		out.AvgSolveTime = total / float64(len(res.Plans))
	}
	return out, nil
}

// allocNameOf strips the "+static" suffix of the w/o-AB ablation label.
func allocNameOf(name string) string {
	if name == "ilp+static" {
		return "ilp"
	}
	return name
}

func batchingOf(name string) batching.Factory {
	if name == "ilp+static" {
		// Proteus w/o AB: batch size statically 1 (§6.5).
		return func() batching.Policy { return batching.NewStatic(1) }
	}
	return func() batching.Policy { return batching.NewAccScale() }
}

// Fig4 reproduces the end-to-end comparison of §6.2: the five systems on
// the Twitter-like trace.
func Fig4(o Options) ([]SystemResult, error) {
	o = o.withDefaults()
	tr := o.twitterTrace()
	var out []SystemResult
	for _, name := range SystemNames {
		r, err := runOne(o, name, batchingOf(name), tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig5 reproduces the §6.3 responsiveness experiment: the five systems on
// the macro-bursty trace.
func Fig5(o Options) ([]SystemResult, error) {
	o = o.withDefaults()
	tr := o.burstyTrace()
	var out []SystemResult
	for _, name := range SystemNames {
		r, err := runOne(o, name, batchingOf(name), tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig7 reproduces the §6.5 ablation study: Proteus against itself without
// model selection, model placement, query assignment, and adaptive
// batching.
func Fig7(o Options) ([]SystemResult, error) {
	o = o.withDefaults()
	tr := o.twitterTrace()
	var out []SystemResult
	for _, name := range AblationNames {
		r, err := runOne(o, name, batchingOf(name), tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig8Point is one (system, SLO multiplier) cell of Figure 8.
type Fig8Point struct {
	System          string
	SLOMultiplier   float64
	AvgThroughput   float64
	MaxAccuracyDrop float64
	ViolationRatio  float64
}

// Fig8 reproduces the §6.6 SLO sensitivity sweep: multipliers 1x-3.5x in
// steps of 0.5 across all five systems.
func Fig8(o Options) ([]Fig8Point, error) {
	o = o.withDefaults()
	var out []Fig8Point
	for _, mult := range []float64{1, 1.5, 2, 2.5, 3, 3.5} {
		oo := o
		oo.SLOMultiplier = mult
		tr := oo.twitterTrace()
		for _, name := range SystemNames {
			r, err := runOne(oo, name, batchingOf(name), tr)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig8Point{
				System:          name,
				SLOMultiplier:   mult,
				AvgThroughput:   r.Summary.AvgThroughput,
				MaxAccuracyDrop: r.Summary.MaxAccuracyDrop,
				ViolationRatio:  r.Summary.ViolationRatio,
			})
		}
	}
	return out, nil
}

// Fig9 reproduces the §6.7 per-model-family breakdown: Proteus alone on
// the Twitter-like trace, reported per family.
func Fig9(o Options) (SystemResult, []string, error) {
	o = o.withDefaults()
	tr := o.twitterTrace()
	r, err := runOne(o, "ilp", batchingOf("ilp"), tr)
	if err != nil {
		return SystemResult{}, nil, err
	}
	return r, models.FamilyNames(models.Zoo()), nil
}

// Table2Row is one allocator's capability row of Table 2.
type Table2Row struct {
	System           string
	ModelPlacement   string
	ModelSelection   string
	AccuracyScaling  string
	AdaptiveBatching string
}

// Table2 reproduces the feature-comparison table.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	rows := []struct {
		display, name, batching string
	}{
		{"Clipper", "clipper-ha", "Yes"},
		{"Sommelier", "sommelier", "No"},
		{"INFaaS", "infaas_v2", "Yes"},
		{"Proteus", "ilp", "Yes"},
	}
	var out []Table2Row
	for _, r := range rows {
		a, err := allocator.ByName(r.name, nil)
		if err != nil {
			return nil, err
		}
		f := a.Features()
		row := Table2Row{System: r.display, AdaptiveBatching: r.batching}
		switch {
		case f.Method == "Static":
			row.ModelPlacement, row.ModelSelection = "Static", "Static"
		case f.Method == "MILP":
			row.ModelPlacement, row.ModelSelection = "MILP", "MILP"
		default:
			row.ModelPlacement, row.ModelSelection = "Heuristic", "Heuristic"
			if !f.DynamicPlacement {
				row.ModelPlacement = "Static"
			}
		}
		switch {
		case r.display == "Sommelier":
			row.AccuracyScaling = "Limited" // single-device scaling only
		case f.AccuracyScaling:
			row.AccuracyScaling = "Yes"
		default:
			row.AccuracyScaling = "No"
		}
		out = append(out, row)
	}
	// The paper marks Sommelier's scaling "Limited" and Clipper/INFaaS "No"
	// (INFaaS scales only after the paper's objective swap).
	return out, nil
}
