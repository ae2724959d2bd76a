package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
)

// FaultReport summarizes the graceful-degradation experiment: a quarter of
// the fleet is killed mid-trace and later recovers, and the report tracks
// how accuracy scaling absorbs the capacity loss.
type FaultReport struct {
	Result SystemResult
	// FailAt/RecoverAt are the injected failure and recovery times; Victims
	// is how many devices died.
	FailAt    time.Duration
	RecoverAt time.Duration
	Victims   int
	// AccuracyBefore/During/After are the mean per-bin effective accuracies
	// of the healthy, degraded and recovered phases.
	AccuracyBefore float64
	AccuracyDuring float64
	AccuracyAfter  float64
	// Triggers counts re-allocations by trigger label.
	Triggers map[string]int
}

// FaultTolerance runs the Proteus MILP system on the Twitter-like trace
// while a quarter of the cluster fails for the middle third of the run. It
// is the robustness counterpart of Fig. 4: the paper evaluates on an
// always-healthy testbed, this experiment shows the same machinery degrading
// and recovering gracefully.
func FaultTolerance(o Options) (FaultReport, error) {
	o = o.withDefaults()
	tr := o.twitterTrace()
	failAt := time.Duration(o.TraceSeconds/3) * time.Second
	recoverAt := time.Duration(2*o.TraceSeconds/3) * time.Second

	cl := cluster.ScaledTestbed(o.ClusterSize)
	faults := cluster.KillFraction(cl, 0.25, failAt, recoverAt)
	sys, err := core.NewSystem(core.Config{
		Cluster:       cl,
		Families:      models.Zoo(),
		SLOMultiplier: o.SLOMultiplier,
		Allocator:     allocator.NewMILP(nil),
		Faults:        faults,
		Seed:          o.Seed + 1,
	})
	if err != nil {
		return FaultReport{}, err
	}
	res, err := sys.Run(tr)
	if err != nil {
		return FaultReport{}, fmt.Errorf("experiments: fault tolerance: %w", err)
	}

	rep := FaultReport{
		FailAt:    failAt,
		RecoverAt: recoverAt,
		Victims:   len(faults.Events),
		Triggers:  map[string]int{},
		Result: SystemResult{
			Name:       "ilp+faults",
			Summary:    res.Summary,
			PerFamily:  res.PerFamily,
			Series:     res.Collector.Series(-1),
			ModelLoads: res.ModelLoads,
			Plans:      len(res.Plans),
		},
	}
	for _, p := range res.Plans {
		rep.Triggers[p.Trigger]++
	}
	phase := func(from, to time.Duration) float64 {
		sum, n := 0.0, 0
		for _, p := range rep.Result.Series {
			if p.Start < from || p.Start >= to || math.IsNaN(p.EffectiveAccuracy) {
				continue
			}
			sum += p.EffectiveAccuracy
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	end := time.Duration(o.TraceSeconds) * time.Second
	rep.AccuracyBefore = phase(0, failAt)
	rep.AccuracyDuring = phase(failAt, recoverAt)
	rep.AccuracyAfter = phase(recoverAt, end)
	return rep, nil
}

// RenderFaults writes the graceful-degradation report.
func RenderFaults(w io.Writer, r FaultReport) error {
	fmt.Fprintf(w, "killed %d devices at %v, recovered at %v\n", r.Victims, r.FailAt, r.RecoverAt)
	fmt.Fprintf(w, "accuracy: before=%.2f%% during=%.2f%% after=%.2f%%\n",
		r.AccuracyBefore, r.AccuracyDuring, r.AccuracyAfter)
	s := r.Result.Summary
	fmt.Fprintf(w, "failures=%d recoveries=%d requeued=%d retried=%d ttr=%v\n",
		s.Failures, s.Recoveries, s.Requeued, s.Retried, s.MeanTimeToRecover.Round(time.Millisecond))
	t := tw(w)
	fmt.Fprintln(t, "trigger\tplans")
	for _, trig := range []string{"initial", "periodic", "burst", "failure", "recovery"} {
		if n := r.Triggers[trig]; n > 0 {
			fmt.Fprintf(t, "%s\t%d\n", trig, n)
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}
	return RenderSystems(w, []SystemResult{r.Result})
}
