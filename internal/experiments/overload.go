package experiments

import (
	"fmt"
	"io"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// OverloadGuardNames are the guard configurations the overload experiment
// compares, in presentation order: no guard at all, admission control and
// backpressure without emergency degradation, and the full guard.
var OverloadGuardNames = []string{"no-guard", "shed-only", "degrade+shed"}

// OverloadRun is one (trace, guard) cell of the overload experiment.
type OverloadRun struct {
	Guard  string
	Result SystemResult
	// Goodput is the on-time served rate (served minus late, per second):
	// the metric admission control is supposed to protect. Sheddding a
	// query that would have missed its deadline anyway costs no goodput but
	// frees the device for queries that can still make it.
	Goodput float64
	// Guard counters for the run (zero under no-guard).
	Rejected      int64
	Backpressured int64
	Degraded      int64
	Escalated     int64
	Restored      int64
	// AuditEpisodes counts the overload actions recorded in the
	// controller's PlanRecord audit trail.
	AuditEpisodes int
}

// OverloadReport compares the three guard configurations on one trace.
type OverloadReport struct {
	Trace string
	Runs  []OverloadRun
}

// adversarialTrace synthesizes the stale-plan spike workload: flat base
// demand with square-wave spikes on the heaviest family, each starting one
// second after a control-period boundary so the freshly applied plan is
// maximally stale for the spike's whole duration. Only the fast-path guard
// can react inside the window.
func (o Options) adversarialTrace() *trace.Trace {
	fams := models.FamilyNames(models.Zoo())
	return trace.NewAdversarial(trace.AdversarialConfig{
		Seconds:       o.TraceSeconds,
		BaseQPS:       o.BaseQPS,
		SpikeQPS:      o.PeakQPS,
		SpikeSeconds:  10,
		PeriodSeconds: 30, // the engine's default control period (dataplane.Config)
		SpikeOffset:   1,
		ZipfAlpha:     1.001,
		Families:      fams,
	})
}

// overloadGuardConfig maps a guard name to the overload configuration it
// runs under (nil for no-guard).
func overloadGuardConfig(guard string) (*overload.Config, error) {
	switch guard {
	case "no-guard":
		return nil, nil
	case "shed-only":
		return &overload.Config{Enabled: true, DisableDegradation: true}, nil
	case "degrade+shed":
		return &overload.Config{Enabled: true}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown overload guard %q", guard)
	}
}

func overloadRun(o Options, guard string, tr *trace.Trace) (OverloadRun, error) {
	guardCfg, err := overloadGuardConfig(guard)
	if err != nil {
		return OverloadRun{}, err
	}
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if o.Trace {
		tracer = telemetry.NewTracer(0)
	}
	// Tight burn windows so the monitor reacts within a spike; every guard
	// configuration shares them so the comparison isolates the guard.
	rec := tsdb.NewRecorder(tsdb.Config{SLO: tsdb.SLOConfig{
		Target:      0.01,
		BurnRate:    2,
		ShortWindow: 2 * time.Second,
		LongWindow:  8 * time.Second,
	}})
	sys, err := core.NewSystem(core.Config{
		Cluster:       cluster.ScaledTestbed(o.ClusterSize),
		Families:      models.Zoo(),
		SLOMultiplier: o.SLOMultiplier,
		Allocator:     allocator.NewMILP(nil),
		Seed:          o.Seed + 7,
		Telemetry:     reg,
		Tracer:        tracer,
		TSDB:          rec,
		Overload:      guardCfg,
	})
	if err != nil {
		return OverloadRun{}, err
	}
	res, err := sys.Run(tr)
	if err != nil {
		return OverloadRun{}, fmt.Errorf("experiments: overload %s: %w", guard, err)
	}
	run := OverloadRun{
		Guard: guard,
		Result: SystemResult{
			Name:       guard,
			Summary:    res.Summary,
			PerFamily:  res.PerFamily,
			Series:     res.Collector.Series(-1),
			ModelLoads: res.ModelLoads,
			Plans:      len(res.Plans),
			Trace:      tracer,
		},
		Rejected:      reg.Counter("overload_rejected_total").Value(),
		Backpressured: reg.Counter("overload_backpressure_total").Value(),
		Degraded:      reg.Counter("overload_degraded_total").Value(),
		Escalated:     reg.Counter("overload_escalated_total").Value(),
		Restored:      reg.Counter("overload_restored_total").Value(),
	}
	if secs := tr.Seconds(); secs > 0 {
		run.Goodput = float64(res.Summary.Served-res.Summary.Late) / float64(secs)
	}
	for _, p := range res.Plans {
		run.AuditEpisodes += len(p.Overloads)
	}
	return run, nil
}

// OverloadRobustness runs the overload experiment: the Proteus MILP system
// under each guard configuration on the macro-burst trace (§6.3) and the
// adversarial stale-plan spike trace, all from the same seed. The question
// each report answers: does shedding alone protect goodput, and does
// emergency degradation recover the goodput that shedding gives away?
func OverloadRobustness(o Options) ([]OverloadReport, error) {
	o = o.withDefaults()
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"bursty", o.burstyTrace()},
		{"adversarial", o.adversarialTrace()},
	}
	reports := make([]OverloadReport, 0, len(cases))
	for _, c := range cases {
		rep := OverloadReport{Trace: c.name}
		for _, guard := range OverloadGuardNames {
			run, err := overloadRun(o, guard, c.tr)
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, run)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// RenderOverload writes the overload robustness comparison.
func RenderOverload(w io.Writer, reports []OverloadReport) error {
	for _, rep := range reports {
		fmt.Fprintf(w, "trace: %s\n", rep.Trace)
		t := tw(w)
		fmt.Fprintln(t, "guard\tviol%\tgoodput\taccuracy\trejected\tpressured\tdegraded\trestored\taudit")
		for _, r := range rep.Runs {
			fmt.Fprintf(t, "%s\t%.2f\t%.1f\t%.2f\t%d\t%d\t%d\t%d\t%d\n",
				r.Guard, 100*r.Result.Summary.ViolationRatio, r.Goodput,
				r.Result.Summary.EffectiveAccuracy, r.Rejected, r.Backpressured,
				r.Degraded+r.Escalated, r.Restored, r.AuditEpisodes)
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}
