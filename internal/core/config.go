// Package core is the Proteus simulator: it drives the shared serving engine
// (internal/dataplane — routing with admission, per-device queues and
// batching steps, accounting, fault and overload reactions) from the
// discrete-event engine's virtual clock, and owns what only a simulation
// has: the run loop and its events — among them the ones the controller's
// re-plan policy asks for — the control-path apply delay, asking about a
// burst on every arrival, elastic provisioning. It is the paper's simulator
// (§6.1.5), which tracks their 40-machine cluster testbed within ~1%.
package core

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/flightrec"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// modelLoadDelay is the time a device is unavailable while switching hosted
// variants (container start + weight load).
const modelLoadDelay = 2 * time.Second

// planApplyDelay models the control-path latency between invoking the
// resource manager and the new plan taking effect (solver + propagation
// time, off the critical path per §4).
const planApplyDelay = time.Second

// Config describes one simulated serving system. A zero engine parameter
// (SLOMultiplier, Batching, ControlPeriod, BurstCooldown, Headroom,
// MetricsInterval, MaxRetries) takes the engine's default, which
// dataplane.Config documents.
type Config struct {
	// Cluster is the device fleet. Required.
	Cluster *cluster.Cluster
	// Families are the registered applications (query types). Required.
	Families []models.Family
	// SLOMultiplier scales each family's SLO relative to the batch-1 CPU
	// latency of its fastest variant (§6.1.2).
	SLOMultiplier float64
	// Allocator is the resource-management policy. Required
	// (allocator.ByName builds one from artifact config names).
	Allocator allocator.Allocator
	// Batching creates each worker's batching policy.
	Batching batching.Factory
	// ControlPeriod is the periodic re-allocation interval and the demand
	// estimation window.
	ControlPeriod time.Duration
	// BurstCooldown is the minimum spacing of burst re-allocations.
	BurstCooldown time.Duration
	// Headroom over-provisions demand estimates when re-allocating
	// (the artifact's β hyper-parameter).
	Headroom float64
	// MetricsInterval is the time-series bin width.
	MetricsInterval time.Duration
	// Elastic enables the §7 hardware-scaling-in-tandem extension: when a
	// plan sheds demand (capacity exhausted even at the lowest accuracy),
	// the controller provisions an extra device, which joins the fleet
	// after ProvisionDelay; accuracy scaling absorbs the burst meanwhile.
	Elastic *ElasticConfig
	// Faults injects deterministic device failures and recoveries during the
	// run (nil for a healthy fleet). Must validate against the cluster size.
	Faults *cluster.FailureSchedule
	// DisableAdmission turns off load-balancer admission control: all
	// arriving queries are routed even when the plan sheds load, leaving
	// overload to pile up in worker queues. Exists for the design-ablation
	// experiments; production behaviour is admission on.
	DisableAdmission bool
	// Tracer, when non-nil, records every query's lifecycle events
	// (arrival → route → enqueue → batch → done/late/dropped) on the virtual
	// clock. Seeded runs with identical configs produce identical traces.
	Tracer *telemetry.Tracer
	// Telemetry, when non-nil, is the counters/gauges registry the system
	// (router, batching, workers, control plane) increments during the run.
	Telemetry *telemetry.Registry
	// TSDB, when non-nil, records per-device time-series samples and runs
	// the sliding-window SLO burn monitor on the virtual clock. Burn
	// transitions are traced (slo_burn_start/slo_burn_end) and audited in
	// the controller's PlanRecord history.
	TSDB *tsdb.Recorder
	// Flight, when non-nil, is the black-box flight recorder: it snapshots
	// bounded rings of recent observability state into deterministic
	// incident bundles on SLO-burn starts, overload degradations, allocator
	// fallbacks and device failures. It ticks on the TSDB sampling cadence
	// and reads its samples and burns from TSDB's logs, so it needs TSDB
	// set (NewSystem refuses it alone); it also snapshots the Tracer and
	// Telemetry components above.
	Flight *flightrec.Recorder
	// Overload, when non-nil and enabled, activates the fast-path overload
	// guard: deadline admission control, high/low-water mailbox
	// backpressure, and burn-triggered emergency accuracy degradation
	// between control periods. Requires TSDB unless DisableDegradation is
	// set: the burn monitor triggers degradation (NewSystem refuses it
	// alone).
	Overload *overload.Config
	// MaxRetries is the per-query re-route budget after a device failure
	// strands it: zero takes the engine's default (the paper artifact's
	// single re-dispatch), a negative value drops stranded queries at once.
	MaxRetries int
	// Seed drives all simulator randomness (routing, arrival expansion).
	Seed uint64
}

// withDefaults fills in the elastic fleet's defaults, the only ones the
// simulator owns; dataplane.New checks the rest and fills in the engine's.
func (c Config) withDefaults() Config {
	if c.Elastic != nil {
		c.Elastic = c.Elastic.withDefaults()
	}
	return c
}

// ElasticConfig parameterizes hardware scaling in tandem with accuracy
// scaling (§7 of the paper, described there as future work).
type ElasticConfig struct {
	// MaxExtra bounds how many devices may be provisioned on top of the
	// fixed cluster.
	MaxExtra int
	// Type is the device type provisioned (default V100).
	Type cluster.DeviceType
	// ProvisionDelay is the server start-up time — the window during which
	// accuracy scaling alone carries the burst (default 60s).
	ProvisionDelay time.Duration
}

func (e *ElasticConfig) withDefaults() *ElasticConfig {
	out := *e
	if out.Type == "" {
		out.Type = cluster.V100
	}
	if out.ProvisionDelay <= 0 {
		out.ProvisionDelay = 60 * time.Second
	}
	if out.MaxExtra < 0 {
		out.MaxExtra = 0
	}
	return &out
}
