// Package dataplane is the serving state machine of Proteus, written once
// for both engines: per-device queues and batching steps (Device), and the
// fleet-wide routing, admission, accounting, overload reactions and
// re-plans (Plane).
// It owns no clock and schedules nothing: every transition takes the current
// time and returns its effects — queries to re-route, a batch to run and
// when it completes, a wake-up time — which internal/core turns into events
// on the simulator's virtual clock and internal/serving into timers, sleeps
// and goroutine hand-offs on the wall clock. That makes the paper's
// simulator-matches-cluster property (§6.1.5) structural.
//
// Nothing here takes a lock of its own. The simulator is single-threaded;
// the live server calls Device transitions under the owning worker's mutex
// and the Plane's routing and accounting transitions under its server
// mutex. The sinks they write to — tracer, tsdb and flight recorders,
// overload guard, counters — synchronise themselves.
package dataplane

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/router"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config is the one configuration of the serving engine: the simulator's
// core.Config and the live server's serving.Config are names for it. New is
// the one place that checks it — a cluster with at least one device, at
// least one family, an allocator, a fault schedule that fits the cluster, a
// tsdb recorder beside a flight recorder — and fills in the engine's
// defaults: SLOMultiplier 2, AccScale batching, ControlPeriod 30 s,
// BurstCooldown ControlPeriod/3, Headroom 1.05, MetricsInterval 10 s and
// MaxRetries 1 (0 means the default, negative values no retry at all).
//
// Each driver fills in only its own clock's defaults before New, and refuses,
// naming it, a field its clock cannot serve: the live server refuses
// Elastic, the simulator InitialDemand, ModelLoadDelay and ExecNoiseFrac.
// Every other field is honoured by both.
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
	// Batching creates each device's batching policy.
	Batching batching.Factory
	// ControlPeriod is the periodic re-plan interval and the window of the
	// per-family demand monitors.
	ControlPeriod time.Duration
	// BurstCooldown is the minimum spacing of burst re-plans.
	BurstCooldown time.Duration
	// Headroom multiplies every demand a plan is solved for (the artifact's
	// β hyper-parameter).
	Headroom float64
	// MetricsInterval is the time-series bin width (the live server's
	// default is 1 s).
	MetricsInterval time.Duration
	// DisableAdmission turns off load-balancer admission control: all
	// arriving queries are routed even when the plan sheds load, leaving
	// overload to pile up in device queues. Exists for the design-ablation
	// experiments; production behaviour is admission on.
	DisableAdmission bool
	// MaxRetries is the per-query re-route budget after a device failure
	// strands it.
	MaxRetries int
	// Seed drives the run's randomness: the routing draws, the simulator's
	// arrival expansion and the live server's execution noise.
	Seed uint64
	// Faults injects deterministic device failures and recoveries during the
	// run (nil for a healthy fleet): the simulator replays them as events,
	// the live server on wall-clock timers.
	Faults *cluster.FailureSchedule
	// Elastic enables the §7 hardware-scaling-in-tandem extension in the
	// simulator: when a plan sheds demand (capacity exhausted even at the
	// lowest accuracy), the controller provisions an extra device, which
	// joins the fleet after ProvisionDelay; accuracy scaling absorbs the
	// burst meanwhile.
	Elastic *ElasticConfig
	// InitialDemand pre-provisions the live server for the expected
	// per-family QPS before any statistics exist (all zeros by default: the
	// server starts minimal and scales on the first control period). The
	// simulator takes its initial demand from the trace.
	InitialDemand []float64
	// ModelLoadDelay is how long a live worker is unavailable when
	// switching variants (default 500 ms, kept short for live experiments;
	// the simulator's load takes 2 s).
	ModelLoadDelay time.Duration
	// ExecNoiseFrac adds multiplicative Gaussian noise to the live server's
	// executed batch latencies, mimicking real hardware variance (default
	// 0.02; negative turns it off).
	ExecNoiseFrac float64

	// Tracer, when non-nil, records every query's lifecycle events
	// (arrival → route → enqueue → batch → done/late/dropped). Seeded
	// simulations with identical configs produce identical traces.
	Tracer *telemetry.Tracer
	// Telemetry, when non-nil, is the counters/gauges registry the engine
	// increments (the live server's default is a fresh registry, backing its
	// /metrics endpoint).
	Telemetry *telemetry.Registry
	// TSDB, when non-nil, records per-device time-series samples and runs
	// the sliding-window SLO burn monitor. Burn transitions are traced
	// (slo_burn_start/slo_burn_end) and audited in the controller's
	// PlanRecord history.
	TSDB *tsdb.Recorder
	// Flight, when non-nil, is the black-box flight recorder: it snapshots
	// bounded rings of recent observability state into incident bundles on
	// SLO-burn starts, overload degradations, allocator fallbacks and device
	// failures. It ticks on the TSDB sampling cadence and reads its samples
	// and burns from TSDB's logs, so it needs TSDB set. A live server's is
	// built with Live set, so its bundles include heap, GC and goroutine
	// snapshots.
	Flight *flightrec.Recorder
	// Overload, when non-nil and enabled, activates the fast-path overload
	// guard: deadline admission control, high/low-water backpressure, and
	// burn-triggered emergency accuracy degradation between control
	// periods. Requires TSDB unless DisableDegradation is set: the burn
	// monitor triggers degradation.
	Overload *overload.Config
}

// ElasticConfig parameterizes hardware scaling in tandem with accuracy
// scaling (§7 of the paper, described there as future work); the simulator
// fills in its defaults.
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

// burstFactor flags a burst when a family's last-second demand exceeds its
// planned capacity by this factor (§3).
const burstFactor = 1.5

// Status is a finished query's fate; the values are the live API's outcome
// strings.
type Status string

// Query fates.
const (
	Served  Status = "served"
	Late    Status = "late"
	Dropped Status = "dropped"
)

// Reply is what the accounting transitions return for a finished query: the
// live server forwards it to the waiting caller, the simulator ignores it.
type Reply struct {
	Status  Status
	Latency time.Duration
	// Hosted is the variant that executed the query (nil when dropped).
	Hosted *allocator.VariantRef
}

// Plane is the fleet-wide half of the engine. In live mode the routing
// state (plan, down mask, table, RNG, query ids), Stats and Collector are
// guarded by the server's mutex; everything else is immutable after New or
// synchronises itself.
type Plane struct {
	// Stats, Controller and Collector are shared with the driver's control
	// loop; Guard is nil when overload protection is off.
	Stats      *controlplane.Stats
	Controller *controlplane.Controller
	Collector  *metrics.Collector
	Guard      *overload.Guard
	Devices    []*Device
	// RNG drives the routing draws; the simulator also splits its arrival
	// expansion off it, so one seed fixes the whole run.
	RNG *numeric.RNG

	cfg  Config
	slos []time.Duration
	// lead is SetDecisionLead's: how far ahead of the true clock the
	// batching policies decide.
	lead time.Duration

	plan   *allocator.Allocation
	down   []bool
	table  *router.Table
	nextID uint64
	// masked and admit are Rebuild's scratch: the plan's routing rows over
	// the ready devices, and each family's full-plan admission.
	masked allocator.Allocation
	admit  []float64
	// planSeq is the audit-log sequence number of the plan in force (0 until
	// the initial plan applies), stamped onto trace events so latency
	// attribution can join queries to control decisions. Atomic because the
	// live data path reads it without the server's mutex.
	planSeq   atomic.Int32
	nextBatch atomic.Int64

	// The sinks in cfg (tracer, tsdb and flight recorders) and the counter
	// bundles are nil-safe, so an uninstrumented run pays only a nil check
	// per event.
	tc telemetry.SystemCounters
	rc telemetry.RouterCounters
	// burnCursor is Sample's position in the tsdb recorder's burn log: the
	// burn starts logged since the previous tick get their incident bundles
	// once this tick has refreshed the flight recorder's rings, so a bundle
	// always includes the burn's own second. Burn transitions fire on the
	// data path (Recorder.Arrival and Violation) as well as inside
	// Recorder.Sample, on whichever goroutine got there, so Sample reads
	// them out of the recorder under its lock; only the goroutine (or event)
	// that calls Sample touches the cursor.
	burnCursor int

	// ban is Route's scratch, indexed by device: whether the guard bans the
	// device for the family being routed. Route fills it for the family's
	// candidates under one guard hold and the router's two passes read it.
	ban []bool
}

// withDefaults checks c and fills in the defaults Config documents.
func (c Config) withDefaults() (Config, error) {
	switch {
	case c.Cluster == nil || c.Cluster.Size() == 0:
		return c, errors.New("dataplane: Config.Cluster needs at least one device")
	case len(c.Families) == 0:
		return c, errors.New("dataplane: Config.Families is empty")
	case c.Allocator == nil:
		return c, errors.New("dataplane: Config.Allocator is nil")
	case c.Flight != nil && c.TSDB == nil:
		return c, errors.New("dataplane: Config.Flight needs a Config.TSDB recorder to read samples and burns from")
	case c.Overload != nil && c.Overload.Enabled && !c.Overload.DisableDegradation && c.TSDB == nil:
		return c, errors.New("dataplane: Config.Overload degrades on SLO burns, which need a Config.TSDB recorder to detect them")
	}
	if err := c.Faults.Validate(c.Cluster.Size()); err != nil {
		return c, fmt.Errorf("dataplane: Config.Faults: %w", err)
	}
	if c.SLOMultiplier <= 0 {
		c.SLOMultiplier = 2
	}
	if c.Batching == nil {
		c.Batching = func() batching.Policy { return batching.NewAccScale() }
	}
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 30 * time.Second
	}
	if c.BurstCooldown <= 0 {
		c.BurstCooldown = c.ControlPeriod / 3
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.05
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = 10 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	return c, nil
}

// SetDecisionLead runs the batching policy's clock lead ahead of the true
// one: Device.Step decides as of now+lead and names its wake-ups that much
// earlier, so a driver whose timers fire late (the live server's wall clock)
// starts a batch before T_max_wait rather than after it. Everything a Step
// stamps or accounts keeps the true now. The simulator leaves it zero; a
// driver sets it before the first Step.
func (p *Plane) SetDecisionLead(lead time.Duration) { p.lead = lead }

// New assembles the engine for cfg with every device idle and an empty
// plan; the driver solves and applies the initial plan. The resolved
// control period is Controller.Period.
func New(cfg Config) (*Plane, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Plane{
		cfg: cfg,
		RNG: numeric.NewRNG(cfg.Seed),
		tc:  telemetry.NewSystemCounters(cfg.Telemetry),
		rc:  telemetry.NewRouterCounters(cfg.Telemetry),
	}
	families := len(cfg.Families)
	for _, f := range cfg.Families {
		p.slos = append(p.slos, profiles.FamilySLO(f, cfg.SLOMultiplier))
	}
	// Ring-wrap evictions surface as trace_dropped_total so truncated
	// traces are visible to attribution (both arguments are nil-safe).
	cfg.Tracer.SetDropCounter(cfg.Telemetry.Counter("trace_dropped_total"))
	p.Collector = metrics.NewCollector(cfg.MetricsInterval, models.FamilyNames(cfg.Families))
	p.Stats = controlplane.NewStats(families, int(cfg.ControlPeriod/time.Second), burstFactor)
	p.Controller = controlplane.NewController(
		cfg.Allocator, cfg.Cluster, cfg.Families, p.slos, cfg.ControlPeriod, cfg.BurstCooldown)
	p.Controller.Instrument(cfg.Telemetry)
	cfg.TSDB.Init(families, p.onBurn)
	cfg.Flight.Init(flightrec.Sources{
		Tracer:   cfg.Tracer,
		Registry: cfg.Telemetry,
		TSDB:     cfg.TSDB,
		Plans:    p.Controller.History,
	})
	if cfg.Flight != nil {
		// Any plan the primary allocator did not produce is an anomaly worth
		// a bundle: the fallback chain stepped in or the solve failed.
		p.Controller.SetRecordHook(func(rec controlplane.PlanRecord) {
			if rec.Stage == "primary" {
				return
			}
			detail := fmt.Sprintf("stage=%s solver=%s", rec.Stage, rec.Solver)
			if rec.Err != "" {
				detail += " err=" + rec.Err
			}
			cfg.Flight.Trigger(rec.At, "alloc_fallback", detail, -1, -1)
		})
	}
	if cfg.Overload != nil {
		p.Guard = overload.New(*cfg.Overload, families, cfg.Cluster.Size())
		p.Guard.Instrument(cfg.Telemetry)
	}
	p.tc.DevicesUp.Set(int64(cfg.Cluster.Size()))
	for _, dev := range cfg.Cluster.Devices() {
		p.AddDevice(dev)
	}
	p.plan = allocator.NewAllocation(&allocator.Input{
		Cluster:  cfg.Cluster,
		Families: cfg.Families,
		SLOs:     p.slos,
		Demand:   make([]float64, families),
	})
	p.table = router.BuildTable(p.plan, families)
	return p, nil
}

// AddDevice appends a healthy, idle device to the fleet.
func (p *Plane) AddDevice(dev cluster.Device) *Device {
	d := &Device{p: p, dev: dev, policy: p.cfg.Batching()}
	d.ctx.ProcTime = d.procTime
	p.Devices = append(p.Devices, d)
	p.down = append(p.down, false)
	return d
}

// trace records a lifecycle event of q with its causal context: the plan in
// force, the family's active degradation episode, and the event's cause.
// The tracer check comes first because the guard lookup is not free.
func (p *Plane) trace(now time.Duration, kind telemetry.EventKind, q *Query, device, batch int, cause telemetry.Cause) {
	if p.cfg.Tracer == nil {
		return
	}
	ctx := telemetry.Ctx{Plan: p.planSeq.Load(), Cause: cause}
	if p.Guard != nil {
		ctx.Episode = int32(p.Guard.EpisodeID(q.Family))
	}
	p.cfg.Tracer.RecordCtx(now, kind, q.ID, q.Family, device, batch, ctx)
}

// Replan carries one re-plan through its three steps, which the live server
// runs under different locks: Plane.Replan reads the routing state under its
// mutex, Plane.Solve runs the allocator outside it on the control goroutine,
// and Plane.SetPlan installs the plan under the mutex again.
type Replan struct {
	Trigger string
	// Failure marks a re-plan that answers a device failure: installing its
	// plan closes the failures the collector holds pending.
	Failure bool
	// Plan is what Solve produced; its Allocation stays nil when a periodic
	// tick keeps the plan in force.
	Plan controlplane.Plan

	at     time.Duration
	demand []float64
	down   []bool
}

// Replan starts the re-plan Controller.Decide or Controller.Retry asked
// for: the demand estimate — for a burst, each family raised to its last
// second's rate — times Config.Headroom, and the down mask.
func (p *Plane) Replan(now time.Duration, trigger string, failure bool) Replan {
	demand := p.Stats.Estimates(now)
	for q := range demand {
		if trigger == "burst" {
			// A burst reacts to the instantaneous rate; the others keep to the
			// windowed estimate, so Poisson noise does not churn the plan.
			if inst := p.Stats.Monitors[q].InstantRate(now); inst > demand[q] {
				demand[q] = inst
			}
		}
		demand[q] *= p.cfg.Headroom
	}
	return Replan{Trigger: trigger, Failure: failure, at: now, demand: demand, down: p.Down()}
}

// InitialPlan solves the plan a run starts with, for demand (families past
// its end at zero) times Config.Headroom.
func (p *Plane) InitialPlan(demand []float64) (Replan, error) {
	r := Replan{Trigger: "initial", demand: make([]float64, len(p.cfg.Families)), down: p.Down()}
	copy(r.demand, demand)
	for q := range r.demand {
		r.demand[q] *= p.cfg.Headroom
	}
	return r, p.Solve(&r)
}

// Solve runs r's allocator call over the healthy devices. A periodic tick
// keeps the plan in force when demand is within 10 % + 1 QPS of the last
// plan's (§4: re-solving would only churn model loads).
func (p *Plane) Solve(r *Replan) error {
	ctl := p.Controller
	if r.Trigger == "periodic" && !ctl.DemandChanged(r.demand, 0.1) {
		return nil
	}
	ctl.SetCluster(ctl.Cluster().WithHealth(r.down))
	var err error
	r.Plan, err = ctl.Reallocate(r.at, r.demand, r.Trigger)
	return err
}

// ---------------------------------------------------------------------------
// Routing state (live: under the server's mutex)

// SetPlan makes r's plan the plan in force at now; the driver then rehosts
// the devices and calls Rebuild. On error — plan and monitors disagree about
// the family space — nothing changed.
func (p *Plane) SetPlan(now time.Duration, r Replan) error {
	if err := p.Stats.SetPlanned(r.Plan.ServedQPS); err != nil {
		return err
	}
	p.plan = r.Plan.Allocation
	p.planSeq.Store(int32(r.Plan.Seq))
	p.tc.DemandScaleMilli.Set(int64(r.Plan.DemandScale * 1000))
	if r.Failure {
		p.Collector.FailureHandled(now)
	}
	return nil
}

// Hosted returns what the plan in force hosts on device d: nil for idle
// devices and for ones provisioned after the plan was solved.
func (p *Plane) Hosted(d int) *allocator.VariantRef {
	if d < 0 || d >= len(p.plan.Hosted) {
		return nil
	}
	return p.plan.Hosted[d]
}

// Down returns a copy of the failure mask (true = failed).
func (p *Plane) Down() []bool { return append([]bool(nil), p.down...) }

// Rebuild rebuilds the routing table from the plan in force, excluding
// devices that are down or still loading their model — so sub-second-SLO
// queries never sit behind a multi-second model load — and refreshes the
// overload guard's device profiles. Weights renormalize per family so ready
// devices absorb the load meanwhile. ready[d] and profs[d] come from
// Devices[d].View(now); drivers call it after every hosting change: plan
// application, load completion, failure, recovery.
func (p *Plane) Rebuild(now time.Duration, ready []bool, profs []overload.DeviceProfile) {
	families := len(p.plan.Routing)
	p.masked.Hosted = p.plan.Hosted
	p.masked.Routing = slices.Grow(p.masked.Routing[:0], families)[:families]
	p.admit = p.admit[:0]
	for q, row := range p.plan.Routing {
		masked := slices.Grow(p.masked.Routing[q][:0], len(row))[:len(row)]
		clear(masked)
		admit := 0.0
		for d, y := range row {
			if y <= 0 {
				continue
			}
			admit += y
			if ready[d] {
				masked[d] = y
			}
		}
		p.masked.Routing[q] = masked
		if p.cfg.DisableAdmission && admit > 0 {
			admit = 1
		}
		p.admit = append(p.admit, admit)
	}
	p.table.Refill(&p.masked, len(p.cfg.Families))
	p.table.SetCounters(p.rc)
	// Admission follows the full plan, not the load-masked subset: during a
	// model load the remaining devices absorb the full admitted load.
	p.table.SetAdmission(p.admit)
	p.Guard.SetPlan(now, profs)
}

// Arrive books one arrival of the given family and returns its query.
func (p *Plane) Arrive(now time.Duration, family int) Query {
	p.Stats.Observe(now, family)
	p.Collector.Arrival(now, family)
	p.cfg.TSDB.Arrival(now, family)
	q := Query{
		ID:       p.nextID,
		Family:   family,
		Arrival:  now,
		Deadline: now + p.slos[family],
	}
	p.nextID++
	p.tc.Arrivals.Inc()
	p.cfg.Tracer.Record(now, telemetry.EvArrival, q.ID, q.Family, -1, -1)
	return q
}

// Route picks a device for q, consulting the overload guard when enabled.
// A negative device means q must be dropped for the returned cause: no
// serving device or an admission-fraction shed, or — with the guard on — a
// deadline admission rejection: q provably cannot meet its SLO behind the
// picked device's backlog, so executing it would only waste capacity.
func (p *Plane) Route(now time.Duration, q Query) (int, telemetry.Cause) {
	var d int
	if p.Guard != nil {
		if len(p.ban) < len(p.Devices) {
			p.ban = make([]bool, len(p.Devices))
		}
		p.Guard.FillBanned(q.Family, p.table.Devices(q.Family), p.ban)
		d = p.table.PickExcluding(q.Family, p.RNG, func(dev int) bool { return p.ban[dev] })
		if d >= 0 && !p.Guard.Admit(now, d, q.Deadline) {
			return -1, telemetry.CauseShedAdmission
		}
	} else {
		d = p.table.Pick(q.Family, p.RNG)
	}
	if d < 0 {
		return -1, telemetry.CauseNoRoute
	}
	p.cfg.Tracer.Record(now, telemetry.EvRoute, q.ID, q.Family, d, -1)
	return d, telemetry.CauseNone
}

// Requeue decides the fate of a stranded query: dropped if it already
// burned its re-route budget (Config.MaxRetries) or cannot meet its
// deadline, otherwise charged one retry, in which case it reports true and
// the driver routes q again. cause records why the query was stranded
// (device failure, stale route, mid-flight loss) on the requeue and retry
// trace events, so attribution can name the re-route penalty.
func (p *Plane) Requeue(now time.Duration, q *Query, cause telemetry.Cause) (Reply, bool) {
	p.Collector.Requeued(now, q.Family)
	p.tc.Requeued.Inc()
	p.trace(now, telemetry.EvRequeued, q, -1, -1, cause)
	if q.Retries >= p.cfg.MaxRetries {
		return p.Drop(now, *q, telemetry.CauseRetryBudget), false
	}
	if q.Deadline <= now {
		return p.Drop(now, *q, telemetry.CauseExpired), false
	}
	q.Retries++
	p.Collector.Retried(now, q.Family)
	p.tc.Retried.Inc()
	p.trace(now, telemetry.EvRetried, q, -1, -1, cause)
	return Reply{}, true
}

// SetHealth records device d's failure (up false) or recovery; false means
// d is out of range or already in that state, and nothing happened. The
// driver follows a failure with Device.Fail, FailureIncident, Rebuild and a
// Requeue of what was stranded; a recovery with Device.Recover and Rebuild.
func (p *Plane) SetHealth(now time.Duration, d int, up bool) bool {
	if d < 0 || d >= len(p.down) || p.down[d] == !up {
		return false
	}
	p.down[d] = !up
	if up {
		p.Collector.DeviceRecovered(now)
	} else {
		p.Collector.DeviceFailed(now)
	}
	healthy := int64(0)
	for _, dn := range p.down {
		if !dn {
			healthy++
		}
	}
	p.tc.DevicesUp.Set(healthy)
	return true
}

// ---------------------------------------------------------------------------
// Accounting (live: under the server's mutex, for the collector)

// Drop accounts a dropped query.
func (p *Plane) Drop(now time.Duration, q Query, cause telemetry.Cause) Reply {
	p.Collector.Dropped(now, q.Family)
	p.cfg.TSDB.Violation(now, q.Family)
	p.tc.Dropped.Inc()
	p.trace(now, telemetry.EvDropped, &q, -1, -1, cause)
	return Reply{Status: Dropped, Latency: now - q.Arrival}
}

// Complete accounts one query of batch b, which Finish completed at now:
// served if now is within its deadline, late otherwise. The query's arrival,
// its enqueue and the batch's start are differenced into the tsdb phase
// histograms: admission, queue and exec, which sum to its latency.
func (p *Plane) Complete(now time.Duration, q Query, b Batch) Reply {
	r := Reply{Status: Served, Latency: now - q.Arrival, Hosted: b.Hosted}
	kind := telemetry.EvDone
	if now <= q.Deadline {
		p.Collector.Served(now, q.Family, b.Hosted.Variant.Accuracy, r.Latency)
		p.tc.Served.Inc()
	} else {
		r.Status, kind = Late, telemetry.EvLate
		p.Collector.Late(now, q.Family, r.Latency)
		p.cfg.TSDB.Violation(now, q.Family)
		p.tc.Late.Inc()
	}
	p.trace(now, kind, &q, b.Device, b.ID, telemetry.CauseNone)
	p.cfg.TSDB.RecordPhases(q.Family, b.Device, tsdb.PhaseDurations{
		Admission: q.EnqueueAt - q.Arrival,
		Queue:     b.Start - q.EnqueueAt,
		Exec:      now - b.Start,
	})
	return r
}

// ---------------------------------------------------------------------------
// Events that need no driver lock

// TraceBatch publishes a batch a Step just started (after the Step's drops,
// so the trace keeps cause before effect).
func (p *Plane) TraceBatch(b Batch) {
	if p.cfg.Tracer == nil {
		return
	}
	for _, q := range b.Queries {
		p.cfg.Tracer.Record(b.Start, telemetry.EvExecStart, q.ID, q.Family, b.Device, b.ID)
	}
}

// FailureIncident snapshots a device_failure incident bundle for device d.
func (p *Plane) FailureIncident(now time.Duration, d int) {
	p.cfg.Flight.Trigger(now, "device_failure", p.Devices[d].dev.Name, -1, d)
}

// Sample is the periodic observability tick: it records states (one
// Device.State per device) with the overload guard's signal, refreshes the
// flight recorder's rings, then snapshots an incident bundle for every burn
// that started since the previous tick, so each captures its own second.
func (p *Plane) Sample(now time.Duration, states []tsdb.DeviceState) {
	for d := range states {
		states[d].SatMilli, states[d].Pressured = p.Guard.DeviceSignal(d)
	}
	p.cfg.TSDB.Sample(now, states)
	if p.cfg.Flight == nil {
		return
	}
	p.cfg.Flight.Tick(now)
	var burns []tsdb.BurnEvent
	burns, p.burnCursor = p.cfg.TSDB.BurnsSince(p.burnCursor)
	for _, ev := range burns {
		if !ev.Start {
			continue
		}
		p.cfg.Flight.Trigger(ev.At, "slo_burn",
			fmt.Sprintf("family=%d short=%.2f long=%.2f", ev.Family, ev.ShortBurn, ev.LongBurn),
			ev.Family, -1)
	}
}

// onBurn receives SLO burn-state transitions from the tsdb recorder: they
// enter the lifecycle trace and the controller's audit log, and the overload
// guard may degrade accuracy at once. Runs under the recorder's lock —
// inside Recorder.Sample, or on the data path inside Arrival or Violation,
// where the live server also holds its mutex — so it must not call back
// into the recorder and touches no Plane state of its own.
func (p *Plane) onBurn(ev tsdb.BurnEvent) {
	kind := telemetry.EvSLOBurnStart
	if !ev.Start {
		kind = telemetry.EvSLOBurnEnd
	}
	p.cfg.Tracer.Record(ev.At, kind, 0, ev.Family, -1, -1)
	p.Controller.NoteBurn(ev)
	// Emergency accuracy degradation reacts to the burn edge immediately —
	// never waiting for the next control period. The guard's lock is a leaf,
	// so calling it under the recorder's lock is safe.
	p.publishOverload(p.Guard.OnBurn(ev.At, ev.Family, ev.Start))
	// A burn's leading edge also snapshots an incident bundle, but not from
	// here: Trigger must not run under the recorder's lock with a stale ring,
	// so the next Sample picks the event up from the recorder's burn log.
}

// GuardTick advances the overload guard's time-based edges (escalation,
// deferred degrades, restores); drivers call it at a fixed 1s cadence.
func (p *Plane) GuardTick(now time.Duration) {
	p.publishOverload(p.Guard.Tick(now))
}

// publishOverload publishes the guard's degradation-ladder transitions:
// tracer events (degrade_start carries the new level in the batch field) and
// decision-audit records attached to the next PlanRecord.
func (p *Plane) publishOverload(changes []overload.Change) {
	for _, ch := range changes {
		kind := telemetry.EvDegradeStart
		if ch.Kind == overload.Restore {
			kind = telemetry.EvDegradeEnd
		}
		p.cfg.Tracer.RecordCtx(ch.At, kind, 0, ch.Family, -1, ch.Level,
			telemetry.Ctx{Plan: p.planSeq.Load(), Episode: int32(ch.Episode)})
		p.Controller.NoteOverload(ch)
		// A degradation opening is the overload incident's leading edge;
		// escalations and restores are just episode progress.
		if ch.Kind == overload.Degrade {
			p.cfg.Flight.Trigger(ch.At, "overload",
				fmt.Sprintf("family=%d level=%d reason=%s", ch.Family, ch.Level, ch.Reason),
				ch.Family, -1)
		}
	}
}

// CheckConservation verifies the books: every arrival of every family ended
// as exactly one of served, late or dropped, and every query a device
// accepted left it exactly once — completed, dropped by a step, or handed
// back — with nothing still queued or in flight. Drivers call it once
// nothing is in flight any more — at the end of a simulation run, after a
// clean drain — with no Device transition running: it reads every device.
func (p *Plane) CheckConservation() error {
	for f, name := range p.Collector.Families() {
		s := p.Collector.Summarize(f)
		if s.Queries != s.Served+s.Late+s.Dropped {
			return fmt.Errorf("conservation violated for %s: %d arrivals, %d served + %d late + %d dropped",
				name, s.Queries, s.Served, s.Late, s.Dropped)
		}
	}
	for _, d := range p.Devices {
		if err := d.checkBooks(); err != nil {
			return err
		}
	}
	return nil
}
