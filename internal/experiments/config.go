// Package experiments reproduces every table and figure of the paper's
// evaluation (§6): the accuracy-throughput motivation plots (Fig. 1), the
// end-to-end system comparison (Fig. 4), burst responsiveness (Fig. 5),
// adaptive-batching isolation (Fig. 6), the ablation study (Fig. 7), SLO
// sensitivity (Fig. 8), the per-family breakdown (Fig. 9), and MILP
// scalability (Fig. 10). cmd/proteus-bench and the top-level benchmarks are
// thin wrappers over this package; EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// Options control the shared experiment scale. The defaults reproduce the
// paper's behaviour on a cluster scaled so that exact MILP solves fit the
// control period with the pure-Go solver (DESIGN.md).
type Options struct {
	// ClusterSize is the total device count, split 2:1:1 CPU:1080Ti:V100.
	// Default 20 (the paper uses 40).
	ClusterSize int
	// TraceSeconds is the end-to-end trace length. Default 300 (the paper
	// replays ~24 minutes; shorten for quick runs).
	TraceSeconds int
	// BaseQPS and PeakQPS shape the diurnal demand. Defaults 180 / 560,
	// calibrated so the peak overloads the scaled cluster the way the
	// paper's sped-up Twitter trace overloads theirs.
	BaseQPS float64
	PeakQPS float64
	// SLOMultiplier is the latency SLO scale (§6.1.2). Default 2.
	SLOMultiplier float64
	// Seed drives all randomness.
	Seed uint64
	// SolverBudget bounds each MILP solve inside the control loop, in
	// branch-and-bound nodes — work, not wall time, so a figure is the same
	// on every host. Default 800.
	SolverBudget int
	// Trace attaches a lifecycle tracer to each end-to-end system run; the
	// recorded events come back in SystemResult.Trace for the caller to
	// export. Off by default (tracing a 5-system figure holds five buffers).
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.ClusterSize <= 0 {
		o.ClusterSize = 20
	}
	if o.TraceSeconds <= 0 {
		o.TraceSeconds = 300
	}
	if o.BaseQPS <= 0 {
		o.BaseQPS = 180
	}
	if o.PeakQPS <= 0 {
		o.PeakQPS = 560
	}
	if o.SLOMultiplier <= 0 {
		o.SLOMultiplier = 2
	}
	if o.Seed == 0 {
		o.Seed = 20240427 // ASPLOS'24 opening day
	}
	if o.SolverBudget <= 0 {
		o.SolverBudget = 800
	}
	return o
}

func (o Options) milpOptions() *allocator.MILPOptions {
	return &allocator.MILPOptions{
		MaxNodes:   o.SolverBudget,
		RelGap:     0.005,
		StallNodes: 600,
	}
}

// SystemNames are the artifact's model_allocation values in the order the
// paper's figures present them.
var SystemNames = []string{"clipper-ha", "clipper-ht", "sommelier", "infaas_v2", "ilp"}

// AblationNames are the §6.5 configurations (w/o AB is handled via the
// batching policy).
var AblationNames = []string{"ilp", "proteus-wo-ms", "proteus-wo-mp", "proteus-wo-qa", "ilp+static"}

// twitterTrace synthesizes the Twitter-like diurnal workload of §6.1.3:
// diurnal pattern with spikes and noise, Zipf split across the nine
// families, family peaks staggered across the day (multi-tenant phase
// spread), sped up to overload the cluster.
func (o Options) twitterTrace() *trace.Trace {
	fams := models.FamilyNames(models.Zoo())
	return trace.NewDiurnal(trace.DiurnalConfig{
		Seconds:           o.TraceSeconds,
		BaseQPS:           o.BaseQPS,
		DiurnalAmplitude:  o.PeakQPS - o.BaseQPS,
		PeriodSeconds:     o.TraceSeconds * 3, // one rising diurnal flank per run
		Spikes:            3,
		SpikeMagnitude:    o.PeakQPS / 8,
		SpikeWidthSeconds: o.TraceSeconds / 20,
		NoiseFrac:         0.03,
		ZipfAlpha:         1.001,
		FamilyPhaseSpread: 0.4,
		Families:          fams,
		Seed:              o.Seed,
	})
}

// burstyTrace synthesizes the §6.3 macro-burst workload: interleaved flat
// low and flat high demand periods.
func (o Options) burstyTrace() *trace.Trace {
	fams := models.FamilyNames(models.Zoo())
	return trace.NewBursty(trace.BurstyConfig{
		Seconds:      o.TraceSeconds,
		LowQPS:       o.BaseQPS,
		HighQPS:      o.PeakQPS,
		LowSeconds:   o.TraceSeconds / 4,
		HighSeconds:  o.TraceSeconds / 4,
		ZipfAlpha:    1.001,
		Families:     fams,
		StartWithLow: true,
	})
}

// newSystem assembles a simulated serving system for the named allocation
// policy and batching factory, returning the attached tracer (nil unless
// Options.Trace is set).
func (o Options) newSystem(allocName string, batch batching.Factory, seed uint64) (*core.System, *telemetry.Tracer, error) {
	alloc, err := allocator.ByName(allocName, o.milpOptions())
	if err != nil {
		return nil, nil, err
	}
	var tracer *telemetry.Tracer
	if o.Trace {
		tracer = telemetry.NewTracer(0)
	}
	cfg := core.Config{
		Cluster:       cluster.ScaledTestbed(o.ClusterSize),
		Families:      models.Zoo(),
		SLOMultiplier: o.SLOMultiplier,
		Allocator:     alloc,
		Batching:      batch,
		Seed:          seed,
		Tracer:        tracer,
	}
	sys, err := core.NewSystem(cfg)
	return sys, tracer, err
}

// allocByName builds an allocator with the experiment's solver options.
func allocByName(name string, o Options) (allocator.Allocator, error) {
	return allocator.ByName(name, o.milpOptions())
}
