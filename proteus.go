// Package proteus is a from-scratch Go implementation of Proteus, the
// high-throughput inference-serving system with accuracy scaling from
// ASPLOS 2024 (Ahmad et al.). It serves inference queries on a fixed-size
// heterogeneous cluster and reacts to demand changes by swapping model
// variants of different accuracy/throughput profiles — accuracy scaling —
// instead of adding hardware.
//
// The package is the module's outside view: the names the programs under
// examples/ use, forwarded from the implementation packages.
//
//   - Cluster and model-zoo construction (the paper's scaled testbed and
//     Table 3 model families).
//   - Workload synthesis: Twitter-like diurnal traces, macro-burst traces
//     and stale-plan spike traces (§6.1.3).
//   - The discrete-event simulator that the paper's evaluation runs on
//     (NewSystem / System.Run), with the Proteus allocator, the INFaaS /
//     Sommelier / Clipper baselines, and all batching policies.
//   - The live cluster mode (NewLiveServer): the same control plane on
//     wall-clock time behind an HTTP API.
//   - Windowed observability and the self-contained HTML run report.
//
// The commands under cmd/ import the implementation packages directly;
// cmd/proteus-bench regenerates the paper's evaluation from
// internal/experiments.
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
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/overload"
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
	// Family is a model family (one registered application / query type).
	Family = models.Family
	// Trace is a per-second demand curve per family.
	Trace = trace.Trace
	// TwitterTraceConfig parameterizes the Twitter-like workload
	// (NewTwitterTrace).
	TwitterTraceConfig = trace.TwitterConfig
	// BurstyTraceConfig parameterizes the macro-burst workload
	// (NewBurstyTrace).
	BurstyTraceConfig = trace.MacroBurstConfig
	// AdversarialTraceConfig parameterizes the stale-plan spike workload
	// (NewAdversarialTrace).
	AdversarialTraceConfig = trace.AdversarialConfig
	// Allocator is a resource-management policy (Proteus MILP or baseline).
	Allocator = allocator.Allocator
	// MILPOptions tune the Proteus allocator: the bound on its β demand
	// back-offs, the switch cost against its previous plan and a variant
	// filter.
	MILPOptions = allocator.MILPOptions
	// SystemConfig configures a simulated serving system. It is the
	// engine's one config, LiveConfig's too; the simulator refuses the
	// live-only InitialDemand, ModelLoadDelay and ExecNoiseFrac.
	SystemConfig = core.Config
	// ElasticConfig enables hardware scaling in tandem with accuracy
	// scaling (the paper's §7 extension; simulator only).
	ElasticConfig = core.ElasticConfig
	// System is a simulated serving system.
	System = core.System
	// Result is a simulation outcome.
	Result = core.Result
	// Summary aggregates the §6.1.4 evaluation metrics.
	Summary = metrics.Summary
	// LiveConfig configures the wall-clock cluster mode: the same struct
	// as SystemConfig, of which the live server refuses only Elastic.
	LiveConfig = serving.Config
	// LiveServer is the wall-clock cluster with an HTTP API.
	LiveServer = serving.Server
	// FailureSchedule is a deterministic fault-injection plan usable by both
	// the simulator (SystemConfig.Faults) and the live mode
	// (LiveConfig.Faults).
	FailureSchedule = cluster.FailureSchedule
	// TelemetryRegistry is a named counter/gauge registry
	// (SystemConfig.Telemetry / LiveConfig.Telemetry).
	TelemetryRegistry = telemetry.Registry
	// TSDBRecorder collects per-device sampled time-series and the SLO
	// burn-rate monitor state (SystemConfig.TSDB / LiveConfig.TSDB). A nil
	// recorder is a valid no-op.
	TSDBRecorder = tsdb.Recorder
	// TSDBConfig parameterizes a TSDBRecorder.
	TSDBConfig = tsdb.Config
	// SLOConfig tunes the multi-window burn-rate monitor.
	SLOConfig = tsdb.SLOConfig
	// RunDump is the full serializable observability state of one run.
	RunDump = report.Dump
	// RunDumpInput names the sources a RunDump is assembled from.
	RunDumpInput = report.BuildInput
	// OverloadConfig enables the fast-path overload guard — deadline
	// admission control, mailbox backpressure, and burn-triggered emergency
	// accuracy degradation (SystemConfig.Overload / LiveConfig.Overload).
	OverloadConfig = overload.Config
)

// V100 is the paper's fastest device type.
const V100 = cluster.V100

// Zoo returns the paper's Table 3 model zoo: nine families, 51 variants.
func Zoo() []Family { return models.Zoo() }

// FamilyNames returns family names in zoo order.
func FamilyNames(zoo []Family) []string { return models.FamilyNames(zoo) }

// ScaledTestbed returns a cluster with the paper's 2:1:1 device-type ratio
// scaled to the given size.
func ScaledTestbed(total int) *Cluster { return cluster.ScaledTestbed(total) }

// KillFraction builds a failure schedule that fails the given fraction of
// the cluster at `at`, spread across the device-type groups; recoverAt == 0
// means the victims never come back.
func KillFraction(c *Cluster, frac float64, at, recoverAt time.Duration) *FailureSchedule {
	return cluster.KillFraction(c, frac, at, recoverAt)
}

// NewAllocator builds an allocation policy by its artifact config name:
// "ilp" (Proteus), "infaas_v2", "sommelier", "clipper-ht", "clipper-ha", or
// an ablation ("proteus-wo-ms", "proteus-wo-mp", "proteus-wo-qa").
func NewAllocator(name string, opts *MILPOptions) (Allocator, error) {
	return allocator.ByName(name, opts)
}

// NewTelemetryRegistry returns an empty counter/gauge registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTSDBRecorder returns an empty windowed-observability recorder with
// defaults applied (1s sampling, 1% SLO budget, 2x burn threshold over
// 5s/60s windows).
func NewTSDBRecorder(cfg TSDBConfig) *TSDBRecorder { return tsdb.NewRecorder(cfg) }

// BuildRunDump assembles a run's observability outputs into a RunDump.
func BuildRunDump(in RunDumpInput) *RunDump { return report.Build(in) }

// RenderRunReport renders a RunDump as a self-contained HTML report
// (inline SVG, no scripts). Byte-deterministic for a given dump.
func RenderRunReport(d *RunDump) []byte { return report.RenderHTML(d) }

// NewSystem assembles a simulated serving system.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// NewLiveServer assembles and starts the wall-clock cluster mode.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) { return serving.NewServer(cfg) }

// NewTwitterTrace synthesizes the Twitter-like workload of §6.1.3.
func NewTwitterTrace(cfg TwitterTraceConfig) *Trace { return trace.NewTwitter(cfg) }

// NewBurstyTrace synthesizes the §6.3 macro-burst workload: interleaved
// low and high demand.
func NewBurstyTrace(cfg BurstyTraceConfig) *Trace { return trace.NewMacroBurst(cfg) }

// NewAdversarialTrace synthesizes the stale-plan spike workload of the
// overload experiments: flat base demand across the zoo's families plus
// square-wave spikes on the heaviest one, each starting just after a
// control-period boundary.
func NewAdversarialTrace(cfg AdversarialTraceConfig) *Trace { return trace.NewAdversarial(cfg) }
