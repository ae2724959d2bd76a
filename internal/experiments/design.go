package experiments

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
)

// DesignAblationRow is one configuration of the implementation-level
// ablation study: the design choices DESIGN.md documents on top of the
// paper's algorithms, each toggled off individually.
type DesignAblationRow struct {
	Name              string
	AvgThroughput     float64
	EffectiveAccuracy float64
	MaxAccuracyDrop   float64
	ViolationRatio    float64
	ModelLoads        int
}

// DesignAblations measures the repository's own engineering choices
// (distinct from the paper's §6.5 algorithm ablations): the switch-cost
// term that damps plan churn, and load-balancer admission control under
// overload.
func DesignAblations(o Options) ([]DesignAblationRow, error) {
	o = o.withDefaults()
	tr := o.twitterTrace()
	type variant struct {
		name             string
		milp             allocator.MILPOptions
		disableAdmission bool
	}
	var base allocator.MILPOptions
	noSwitch := base
	noSwitch.SwitchCost = -1
	variants := []variant{
		{name: "default", milp: base},
		{name: "no-switch-cost", milp: noSwitch},
		{name: "no-admission", milp: base, disableAdmission: true},
	}
	var out []DesignAblationRow
	for _, v := range variants {
		opts := v.milp
		cfg := core.Config{
			Cluster:          cluster.ScaledTestbed(o.ClusterSize),
			Families:         models.Zoo(),
			SLOMultiplier:    o.SLOMultiplier,
			Allocator:        allocator.NewMILP(&opts),
			Batching:         func() batching.Policy { return batching.NewAccScale() },
			DisableAdmission: v.disableAdmission,
			Seed:             o.Seed + 1,
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, DesignAblationRow{
			Name:              v.name,
			AvgThroughput:     res.Summary.AvgThroughput,
			EffectiveAccuracy: res.Summary.EffectiveAccuracy,
			MaxAccuracyDrop:   res.Summary.MaxAccuracyDrop,
			ViolationRatio:    res.Summary.ViolationRatio,
			ModelLoads:        res.ModelLoads,
		})
	}
	return out, nil
}

// AggregationComparison measures the exact type-aggregated MILP against the
// paper's literal per-device formulation on identical instances: same
// optimum (within gap), very different solve times — the justification for
// the default formulation in DESIGN.md.
type AggregationComparison struct {
	Devices            int
	AggregatedTime     time.Duration
	PerDeviceTime      time.Duration
	AggregatedAccuracy float64
	PerDeviceAccuracy  float64
}

// CompareFormulations runs both formulations across cluster sizes.
func CompareFormulations(sizes []int, timeLimit time.Duration) ([]AggregationComparison, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 24}
	}
	if timeLimit <= 0 {
		timeLimit = 5 * time.Second
	}
	var out []AggregationComparison
	for _, size := range sizes {
		in := fig10Input(size, 17, 3)
		start := time.Now()
		aggPlan, err := allocator.NewMILP(nil).Allocate(in)
		aggTime := time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		pdSol, pdAcc := solveLiteral(in, literalOptions(timeLimit))
		pdTime := time.Since(start)
		if err := literalErr(&pdSol); err != nil {
			return nil, err
		}
		out = append(out, AggregationComparison{
			Devices:            size,
			AggregatedTime:     aggTime,
			PerDeviceTime:      pdTime,
			AggregatedAccuracy: aggPlan.PredictedAccuracy,
			PerDeviceAccuracy:  pdAcc,
		})
	}
	return out, nil
}
