// Package proteus is a from-scratch Go implementation of Proteus, the
// high-throughput inference-serving system with accuracy scaling from
// ASPLOS 2024 (Ahmad et al.). It serves inference queries on a fixed-size
// heterogeneous cluster and reacts to demand changes by swapping model
// variants of different accuracy/throughput profiles — accuracy scaling —
// instead of adding hardware.
//
// The package is a facade over the implementation packages:
//
//   - Cluster and model-zoo construction (the paper's testbed and Table 3
//     model families).
//   - Workload synthesis: Twitter-like diurnal traces, macro-burst traces,
//     and micro-burst inter-arrival processes (§6.1.3).
//   - The discrete-event simulator that the paper's evaluation runs on
//     (NewSystem / System.Run), with the Proteus MILP allocator, the
//     INFaaS / Sommelier / Clipper baselines, and all batching policies.
//   - The live cluster mode (NewLiveServer): the same control plane on
//     wall-clock time behind an HTTP API.
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation (Experiments / Fig* functions).
//
// A minimal simulation:
//
//	alloc, _ := proteus.NewAllocator("ilp", nil)
//	sys, _ := proteus.NewSystem(proteus.SystemConfig{
//		Cluster:   proteus.ScaledTestbed(20),
//		Families:  proteus.Zoo(),
//		Allocator: alloc,
//	})
//	tr := proteus.NewTwitterTrace(proteus.TwitterTraceConfig{Seconds: 300})
//	res, _ := sys.Run(tr)
//	fmt.Println(res.Summary)
package proteus

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/attrib"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/core"
	"proteus/internal/experiments"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/report"
	"proteus/internal/serving"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// Core serving types, re-exported from the implementation packages.
type (
	// Cluster is a fixed heterogeneous device fleet.
	Cluster = cluster.Cluster
	// DeviceType identifies a hardware class (CPU, GTX1080Ti, V100).
	DeviceType = cluster.DeviceType
	// Family is a model family (one registered application / query type).
	Family = models.Family
	// Variant is one member of a model family.
	Variant = models.Variant
	// Trace is a per-second demand curve per family.
	Trace = trace.Trace
	// Allocator is a resource-management policy (Proteus MILP or baseline).
	Allocator = allocator.Allocator
	// Allocation is a model selection + placement + query assignment plan.
	Allocation = allocator.Allocation
	// AllocationInput is the problem an Allocator solves.
	AllocationInput = allocator.Input
	// MILPOptions tune the Proteus MILP allocator.
	MILPOptions = allocator.MILPOptions
	// BatchingPolicy is a per-worker batch scheduling algorithm.
	BatchingPolicy = batching.Policy
	// BatchingFactory creates per-worker policy instances.
	BatchingFactory = batching.Factory
	// SystemConfig configures a simulated serving system.
	SystemConfig = core.Config
	// ElasticConfig enables hardware scaling in tandem with accuracy
	// scaling (the paper's §7 extension).
	ElasticConfig = core.ElasticConfig
	// System is a simulated serving system.
	System = core.System
	// Result is a simulation outcome.
	Result = core.Result
	// Summary aggregates the §6.1.4 evaluation metrics.
	Summary = metrics.Summary
	// SeriesPoint is one bin of a metric time series.
	SeriesPoint = metrics.Point
	// LiveConfig configures the wall-clock cluster mode.
	LiveConfig = serving.Config
	// LiveServer is the wall-clock cluster with an HTTP API.
	LiveServer = serving.Server
	// ExperimentOptions scale the paper-reproduction experiments.
	ExperimentOptions = experiments.Options
	// FailureSchedule is a deterministic fault-injection plan usable by both
	// the simulator (SystemConfig.Faults) and the live mode
	// (LiveConfig.Faults).
	FailureSchedule = cluster.FailureSchedule
	// FailureEvent is one device failure (and optional recovery).
	FailureEvent = cluster.FailureEvent
	// RandomScheduleConfig parameterizes seeded MTBF/MTTR fault injection.
	RandomScheduleConfig = cluster.RandomScheduleConfig
	// TypeCount is one (device type, count) entry of an explicit cluster spec.
	TypeCount = cluster.TypeCount
	// Tracer records per-query lifecycle events into a bounded ring buffer
	// (SystemConfig.Tracer / LiveConfig.Tracer).
	Tracer = telemetry.Tracer
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = telemetry.Event
	// TelemetryRegistry is a named counter/gauge registry
	// (SystemConfig.Telemetry / LiveConfig.Telemetry).
	TelemetryRegistry = telemetry.Registry
	// PlanRecord is one control-period entry of the decision audit log.
	PlanRecord = controlplane.PlanRecord
	// TSDBRecorder collects per-device sampled time-series and the SLO
	// burn-rate monitor state (SystemConfig.TSDB / LiveConfig.TSDB). A nil
	// recorder is a valid no-op, like the tracer.
	TSDBRecorder = tsdb.Recorder
	// TSDBConfig parameterizes a TSDBRecorder.
	TSDBConfig = tsdb.Config
	// SLOConfig tunes the multi-window burn-rate monitor.
	SLOConfig = tsdb.SLOConfig
	// BurnEvent is one SLO burn-episode transition.
	BurnEvent = tsdb.BurnEvent
	// DeviceSample is one point of a device's sampled time-series.
	DeviceSample = tsdb.Sample
	// LatencyHistogram is the log-linear bucketed histogram behind every
	// latency percentile in Summary and the windowed series.
	LatencyHistogram = tsdb.Histogram
	// RunDump is the full serializable observability state of one run.
	RunDump = report.Dump
	// RunDumpInput names the sources a RunDump is assembled from.
	RunDumpInput = report.BuildInput
	// OverloadConfig enables the fast-path overload guard — deadline
	// admission control, mailbox backpressure, and burn-triggered emergency
	// accuracy degradation (SystemConfig.Overload / LiveConfig.Overload).
	OverloadConfig = overload.Config
	// OverloadState is the guard's introspection snapshot, exposed by the
	// live server's /healthz endpoint.
	OverloadState = overload.State
	// OverloadEpisode is one active emergency-degradation episode.
	OverloadEpisode = overload.Episode
	// FlightRecorder is the black-box flight recorder: bounded rings of
	// recent observability state snapshotted into incident bundles on SLO
	// burn, overload, allocator fallback, device failure, or manual trigger
	// (SystemConfig.Flight / LiveConfig.Flight). A nil recorder is a valid
	// no-op, like the tracer.
	FlightRecorder = flightrec.Recorder
	// FlightConfig sizes the flight recorder's rings and selects live mode.
	FlightConfig = flightrec.Config
	// FlightSources are the observability surfaces the recorder samples.
	FlightSources = flightrec.Sources
	// IncidentBundle is one incident's atomic diagnostic snapshot.
	IncidentBundle = flightrec.Bundle
	// PhaseStat is one row of the per-family / per-device latency phase
	// decomposition (admission, queue, batch_form, exec, response).
	PhaseStat = tsdb.PhaseStat
	// PhaseDurations is one query's per-phase latency split.
	PhaseDurations = tsdb.PhaseDurations
	// AttributionInput configures one latency-attribution pass over a
	// lifecycle trace.
	AttributionInput = attrib.Input
	// AttributionReport is the full attribution output: per-query latency
	// waterfalls with blame labels, plus family/window blame tables.
	AttributionReport = attrib.Report
	// Explanation is one query's attributed latency waterfall.
	Explanation = attrib.Explanation
)

// Device types of the paper's testbed.
const (
	CPU       = cluster.CPU
	GTX1080Ti = cluster.GTX1080Ti
	V100      = cluster.V100
)

// Zoo returns the paper's Table 3 model zoo: nine families, 51 variants.
func Zoo() []Family { return models.Zoo() }

// FamilyNames returns family names in zoo order.
func FamilyNames(zoo []Family) []string { return models.FamilyNames(zoo) }

// PaperTestbed returns the paper's 40-device cluster (20 CPUs,
// 10 GTX 1080 Tis, 10 V100s).
func PaperTestbed() *Cluster { return cluster.PaperTestbed() }

// ScaledTestbed returns a cluster with the paper's 2:1:1 device-type ratio
// scaled to the given size.
func ScaledTestbed(total int) *Cluster { return cluster.ScaledTestbed(total) }

// NewClusterFromSpec builds a cluster from (type, count) pairs, validating
// device types instead of panicking on unknown ones.
func NewClusterFromSpec(counts []TypeCount) (*Cluster, error) {
	return cluster.NewFromSpec(counts)
}

// KillFraction builds a failure schedule that fails the given fraction of
// the cluster at `at`, spread across the device-type groups; recoverAt == 0
// means the victims never come back.
func KillFraction(c *Cluster, frac float64, at, recoverAt time.Duration) *FailureSchedule {
	return cluster.KillFraction(c, frac, at, recoverAt)
}

// RandomFailureSchedule draws a seeded, reproducible fail/recover timeline
// with exponential MTBF/MTTR per device.
func RandomFailureSchedule(c *Cluster, cfg RandomScheduleConfig) (*FailureSchedule, error) {
	return cluster.RandomSchedule(c, cfg)
}

// FamilySLO returns the latency SLO of a family: the batch-1 CPU latency of
// its fastest variant times the multiplier (§6.1.2; the paper uses 2).
func FamilySLO(f Family, multiplier float64) time.Duration {
	return profiles.FamilySLO(f, multiplier)
}

// NewAllocator builds an allocation policy by its artifact config name:
// "ilp" (Proteus), "ilp-fair" (the §7 fairness extension), "infaas_v2",
// "sommelier", "clipper-ht", "clipper-ha", or an ablation
// ("proteus-wo-ms", "proteus-wo-mp", "proteus-wo-qa").
func NewAllocator(name string, opts *MILPOptions) (Allocator, error) {
	return allocator.ByName(name, opts)
}

// NewBatching builds a batching-policy factory by its artifact config name:
// "accscale" (Proteus), "nexus", "aimd", or "static-N".
func NewBatching(name string) (BatchingFactory, error) {
	return batching.ByName(name)
}

// NewTracer returns a lifecycle tracer holding at most capacity events
// (capacity <= 0 selects the default, one million). A nil *Tracer is a
// valid no-op recorder, so tracing stays opt-in and free when unused.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// NewTelemetryRegistry returns an empty counter/gauge registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTSDBRecorder returns an empty windowed-observability recorder with
// defaults applied (1s sampling, 1% SLO budget, 2x burn threshold over
// 5s/60s windows).
func NewTSDBRecorder(cfg TSDBConfig) *TSDBRecorder { return tsdb.NewRecorder(cfg) }

// BuildRunDump assembles a run's observability outputs into a RunDump.
func BuildRunDump(in RunDumpInput) *RunDump { return report.Build(in) }

// AnalyzeAttribution runs the deterministic latency-attribution engine over
// a lifecycle trace: per-query component waterfalls that sum exactly to the
// end-to-end latency, with a blame label on every SLO-violated query.
func AnalyzeAttribution(in AttributionInput) *AttributionReport { return attrib.Analyze(in) }

// ReadRunDump parses a RunDump JSON file.
func ReadRunDump(path string) (*RunDump, error) { return report.ReadDumpFile(path) }

// RenderRunReport renders a RunDump as a self-contained HTML report
// (inline SVG, no scripts). Byte-deterministic for a given dump.
func RenderRunReport(d *RunDump) []byte { return report.RenderHTML(d) }

// NewFlightRecorder returns a flight recorder with defaults applied (4096
// trace events, 64 counter snapshots, 2048 samples, 256 burns, 32 plans,
// 16 retained incidents). A nil *FlightRecorder is a valid no-op.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return flightrec.New(cfg) }

// ReadIncidentBundle parses an incident bundle JSON file written by the
// flight recorder.
func ReadIncidentBundle(path string) (*IncidentBundle, error) {
	return flightrec.ReadBundleFile(path)
}

// RenderIncidentReport renders an incident bundle as a self-contained HTML
// page. Byte-deterministic for a given bundle.
func RenderIncidentReport(b *IncidentBundle) []byte { return report.RenderIncident(b) }

// NewSystem assembles a simulated serving system.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// NewLiveServer assembles and starts the wall-clock cluster mode.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) { return serving.NewServer(cfg) }

// TwitterTraceConfig parameterizes the Twitter-like synthetic workload
// (§6.1.3): a diurnal curve with spikes and noise, Zipf-split across the
// zoo's nine families.
type TwitterTraceConfig struct {
	// Seconds is the trace length (default 300).
	Seconds int
	// BaseQPS is the demand floor (default 180).
	BaseQPS float64
	// PeakQPS is the diurnal peak (default 560).
	PeakQPS float64
	// Seed drives the synthesis (default 1).
	Seed uint64
	// Families defaults to the full zoo's family names.
	Families []string
}

// NewTwitterTrace synthesizes the Twitter-like workload.
func NewTwitterTrace(cfg TwitterTraceConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.BaseQPS <= 0 {
		cfg.BaseQPS = 180
	}
	if cfg.PeakQPS <= cfg.BaseQPS {
		cfg.PeakQPS = cfg.BaseQPS + 380
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
	}
	return trace.NewDiurnal(trace.DiurnalConfig{
		Seconds:           cfg.Seconds,
		BaseQPS:           cfg.BaseQPS,
		DiurnalAmplitude:  cfg.PeakQPS - cfg.BaseQPS,
		PeriodSeconds:     cfg.Seconds * 3,
		Spikes:            3,
		SpikeMagnitude:    cfg.PeakQPS / 8,
		SpikeWidthSeconds: cfg.Seconds / 20,
		NoiseFrac:         0.03,
		ZipfAlpha:         1.001,
		FamilyPhaseSpread: 0.4,
		Families:          cfg.Families,
		Seed:              cfg.Seed,
	})
}

// BurstyTraceConfig parameterizes the §6.3 macro-burst workload.
type BurstyTraceConfig struct {
	Seconds       int
	LowQPS        float64
	HighQPS       float64
	PeriodSeconds int // length of each low/high phase
	Families      []string
}

// NewBurstyTrace synthesizes the interleaved low/high demand workload.
func NewBurstyTrace(cfg BurstyTraceConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.LowQPS <= 0 {
		cfg.LowQPS = 150
	}
	if cfg.HighQPS <= cfg.LowQPS {
		cfg.HighQPS = cfg.LowQPS * 3
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = cfg.Seconds / 4
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
	}
	return trace.NewBursty(trace.BurstyConfig{
		Seconds:      cfg.Seconds,
		LowQPS:       cfg.LowQPS,
		HighQPS:      cfg.HighQPS,
		LowSeconds:   cfg.PeriodSeconds,
		HighSeconds:  cfg.PeriodSeconds,
		ZipfAlpha:    1.001,
		Families:     cfg.Families,
		StartWithLow: true,
	})
}

// AdversarialTraceConfig parameterizes the stale-plan spike workload used
// by the overload experiments: flat base demand plus square-wave spikes on
// the heaviest family, each starting just after a control-period boundary.
type AdversarialTraceConfig struct {
	Seconds       int
	BaseQPS       float64
	SpikeQPS      float64 // added to family 0 during each spike
	SpikeSeconds  int
	PeriodSeconds int // spike spacing; align with the control period
	Families      []string
}

// NewAdversarialTrace synthesizes the stale-plan spike workload.
func NewAdversarialTrace(cfg AdversarialTraceConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.BaseQPS <= 0 {
		cfg.BaseQPS = 150
	}
	if cfg.SpikeQPS <= 0 {
		cfg.SpikeQPS = cfg.BaseQPS * 3
	}
	if cfg.SpikeSeconds <= 0 {
		cfg.SpikeSeconds = 10
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = 30
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
	}
	return trace.NewAdversarial(trace.AdversarialConfig{
		Seconds:       cfg.Seconds,
		BaseQPS:       cfg.BaseQPS,
		SpikeQPS:      cfg.SpikeQPS,
		SpikeSeconds:  cfg.SpikeSeconds,
		PeriodSeconds: cfg.PeriodSeconds,
		ZipfAlpha:     1.001,
		Families:      cfg.Families,
	})
}
