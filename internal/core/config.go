// Package core is the Proteus simulator: it drives the shared serving engine
// (internal/dataplane — routing with admission, per-device queues and
// batching steps, accounting, fault and overload reactions) from the
// discrete-event engine's virtual clock, and owns what only a simulation
// has: the run loop and its events, the control-path apply delay, burst
// detection, elastic provisioning. It is the paper's simulator (§6.1.5),
// which tracks their 40-machine cluster testbed within ~1%.
package core

import (
	"fmt"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/flightrec"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config describes one simulated serving system.
type Config struct {
	// Cluster is the device fleet. Required.
	Cluster *cluster.Cluster
	// Families are the registered applications (query types). Required.
	Families []models.Family
	// SLOMultiplier scales each family's SLO relative to the batch-1 CPU
	// latency of its fastest variant (§6.1.2). Default 2.
	SLOMultiplier float64
	// Allocator is the resource-management policy. Required
	// (allocator.ByName builds one from artifact config names).
	Allocator allocator.Allocator
	// Batching creates each worker's batching policy. Default AccScale.
	Batching batching.Factory
	// ControlPeriod is the periodic re-allocation interval. Default 30s.
	ControlPeriod time.Duration
	// DemandWindow is the statistics collector's estimation window.
	// Default: ControlPeriod.
	DemandWindow time.Duration
	// BurstFactor triggers an early re-allocation when a family's
	// instantaneous demand exceeds its planned capacity by this factor.
	// Default 1.5.
	BurstFactor float64
	// BurstCooldown is the minimum spacing of burst re-allocations.
	// Default 10s.
	BurstCooldown time.Duration
	// Headroom over-provisions demand estimates when re-allocating
	// (the artifact's β = 1.05 hyper-parameter). Default 1.05.
	Headroom float64
	// ModelLoadDelay is the time a device is unavailable while switching
	// hosted variants (container start + weight load). Default 2s.
	ModelLoadDelay time.Duration
	// PlanApplyDelay models the control-path latency between invoking the
	// resource manager and the new plan taking effect (solver + propagation
	// time, off the critical path per §4). Default 1s.
	PlanApplyDelay time.Duration
	// MetricsInterval is the time-series bin width. Default 10s.
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
	// and snapshots the Tracer, Telemetry and TSDB components above, so it
	// is most useful with those set too.
	Flight *flightrec.Recorder
	// PlanHistory bounds the controller's in-memory decision audit ring
	// (records beyond the bound are dropped oldest-first). Default 256.
	PlanHistory int
	// SLOBurnRealloc lets an SLO burn start trigger an early re-allocation
	// (subject to the burst cooldown). Off by default: the monitor then only
	// observes and reports.
	SLOBurnRealloc bool
	// Overload, when non-nil and enabled, activates the fast-path overload
	// guard: deadline admission control, high/low-water mailbox
	// backpressure, and burn-triggered emergency accuracy degradation
	// between control periods. Requires TSDB for the degradation path (the
	// burn monitor is its trigger).
	Overload *overload.Config
	// MaxRetries is the per-query re-route budget after a device failure
	// strands it (0 drops stranded queries immediately, negative values are
	// treated as 0). Default 1, the paper artifact's single re-dispatch.
	MaxRetries int
	// Seed drives all simulator randomness (routing, arrival expansion).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Cluster == nil || c.Cluster.Size() == 0 {
		return c, fmt.Errorf("core: config needs a cluster")
	}
	if len(c.Families) == 0 {
		return c, fmt.Errorf("core: config needs families")
	}
	if c.Allocator == nil {
		return c, fmt.Errorf("core: config needs an allocator")
	}
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 30 * time.Second
	}
	if c.DemandWindow <= 0 {
		c.DemandWindow = c.ControlPeriod
	}
	if c.BurstFactor <= 0 {
		c.BurstFactor = 1.5
	}
	if c.BurstCooldown <= 0 {
		c.BurstCooldown = 10 * time.Second
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.05
	}
	if c.ModelLoadDelay < 0 {
		c.ModelLoadDelay = 0
	} else if c.ModelLoadDelay == 0 {
		c.ModelLoadDelay = 2 * time.Second
	}
	if c.PlanApplyDelay < 0 {
		c.PlanApplyDelay = 0
	} else if c.PlanApplyDelay == 0 {
		c.PlanApplyDelay = time.Second
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = 10 * time.Second
	}
	if c.Elastic != nil {
		c.Elastic = c.Elastic.withDefaults()
	}
	if err := c.Faults.Validate(c.Cluster.Size()); err != nil {
		return c, err
	}
	return c, nil
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

// SLOs computes the per-family SLOs for the config.
func (c Config) SLOs() []time.Duration {
	out := make([]time.Duration, len(c.Families))
	for q, f := range c.Families {
		out[q] = profiles.FamilySLO(f, c.SLOMultiplier)
	}
	return out
}

// FamilyNames returns the family names in index order.
func (c Config) FamilyNames() []string {
	return models.FamilyNames(c.Families)
}
