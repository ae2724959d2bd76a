// Package dataplane is the serving state machine of Proteus, written once
// for both engines: per-device queues and batching steps (Device), and the
// fleet-wide routing, admission, accounting and overload reactions (Plane).
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
	"fmt"
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

// Config is what both drivers hand the shared engine, each from its own
// public Config. New applies the defaults of the fields documented there as
// engine behaviour: SLOMultiplier 2, AccScale batching, and MaxRetries 1
// (0 means the default, negative values no retry at all).
type Config struct {
	Cluster       *cluster.Cluster
	Families      []models.Family
	SLOMultiplier float64
	Allocator     allocator.Allocator
	Batching      batching.Factory
	// ControlPeriod and Cooldown parameterize the controller; DemandWindow
	// and BurstFactor the per-family demand monitors.
	ControlPeriod time.Duration
	Cooldown      time.Duration
	DemandWindow  time.Duration
	BurstFactor   float64

	MetricsInterval  time.Duration
	DisableAdmission bool
	MaxRetries       int
	PlanHistory      int
	Seed             uint64
	// DecisionLead runs the batching policy's clock that far ahead of the
	// true one: Device.Step decides as of now+DecisionLead and names its
	// wake-ups that much earlier, so a driver whose timers fire late (the
	// live server's wall clock) starts a batch before T_max_wait rather than
	// after it. Everything a Step stamps or accounts keeps the true now. The
	// simulator leaves it zero.
	DecisionLead time.Duration

	Tracer    *telemetry.Tracer
	Telemetry *telemetry.Registry
	TSDB      *tsdb.Recorder
	Flight    *flightrec.Recorder
	Overload  *overload.Config
	// OnBurnStart, when non-nil, runs at the end of every SLO burn start
	// (under the tsdb recorder's lock): the driver's hook for a
	// burn-triggered re-allocation.
	OnBurnStart func(at time.Duration)
}

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

	plan   *allocator.Allocation
	down   []bool
	table  *router.Table
	nextID uint64
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
}

// New assembles the engine for cfg with every device idle and an empty
// plan; the driver solves and applies the initial plan.
func New(cfg Config) *Plane {
	if cfg.SLOMultiplier <= 0 {
		cfg.SLOMultiplier = 2
	}
	if cfg.Batching == nil {
		cfg.Batching = func() batching.Policy { return batching.NewAccScale() }
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 1
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
	p.Stats = controlplane.NewStats(families, int(cfg.DemandWindow/time.Second), cfg.BurstFactor)
	p.Controller = controlplane.NewController(
		cfg.Allocator, cfg.Cluster, cfg.Families, p.slos, cfg.ControlPeriod, cfg.Cooldown)
	p.Controller.Instrument(cfg.Telemetry)
	p.Controller.SetHistoryLimit(cfg.PlanHistory)
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
	return p
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

// ---------------------------------------------------------------------------
// Routing state (live: under the server's mutex)

// SetPlan makes plan, with audit sequence number seq, the plan in force; the
// driver then rehosts the devices and calls Rebuild. On error — plan and
// monitors disagree about the family space — nothing changed.
func (p *Plane) SetPlan(plan *allocator.Allocation, seq int) error {
	if err := p.Stats.SetPlanned(plan.ServedQPS); err != nil {
		return err
	}
	p.plan = plan
	p.planSeq.Store(int32(seq))
	p.tc.DemandScaleMilli.Set(int64(plan.DemandScale * 1000))
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
	masked := allocator.Allocation{
		Hosted:  p.plan.Hosted,
		Routing: make([][]float64, len(p.plan.Routing)),
	}
	admit := make([]float64, len(p.plan.Routing))
	for q, row := range p.plan.Routing {
		masked.Routing[q] = make([]float64, len(row))
		for d, y := range row {
			if y <= 0 {
				continue
			}
			admit[q] += y
			if ready[d] {
				masked.Routing[q][d] = y
			}
		}
	}
	p.table = router.BuildTable(&masked, len(p.cfg.Families))
	p.table.SetCounters(p.rc)
	if p.cfg.DisableAdmission {
		for q := range admit {
			if admit[q] > 0 {
				admit[q] = 1
			}
		}
	}
	// Admission follows the full plan, not the load-masked subset: during a
	// model load the remaining devices absorb the full admitted load.
	p.table.SetAdmission(admit)
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
		d = p.table.PickExcluding(q.Family, p.RNG, func(dev int) bool {
			return p.Guard.Banned(q.Family, dev)
		})
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
// served if now is within its deadline, late otherwise. The lifecycle
// timestamps are differenced into the tsdb phase histograms (no response
// phase: completion and response delivery coincide).
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
		Queue:     q.FormAt - q.EnqueueAt,
		BatchForm: q.ExecAt - q.FormAt,
		Exec:      now - q.ExecAt,
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
		p.cfg.Tracer.Record(b.Start, telemetry.EvBatchFormed, q.ID, q.Family, b.Device, b.ID)
		p.cfg.Tracer.Record(b.Start, telemetry.EvExecStart, q.ID, q.Family, b.Device, b.ID)
	}
}

// FailureIncident snapshots a device_failure incident bundle for device d.
func (p *Plane) FailureIncident(now time.Duration, d int) {
	p.cfg.Flight.Trigger(now, "device_failure", p.Devices[d].dev.Name, -1, d)
}

// Sample is the periodic observability tick: it records states (one
// Device.State per device; nil without a tsdb recorder) with the overload
// guard's signal, refreshes the flight recorder's rings, then snapshots an
// incident bundle for every burn that started since the previous tick, so
// each captures its own second.
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
// enter the lifecycle trace and the controller's audit log, and the driver's
// OnBurnStart hook may re-allocate early. Runs under the recorder's lock —
// inside Recorder.Sample, or on the data path inside Arrival or Violation,
// where the live server also holds its mutex — so it must not call back
// into the recorder and touches no Plane state of its own.
func (p *Plane) onBurn(ev tsdb.BurnEvent) {
	kind := telemetry.EvSLOBurnStart
	if !ev.Start {
		kind = telemetry.EvSLOBurnEnd
	}
	p.cfg.Tracer.Record(ev.At, kind, 0, ev.Family, -1, -1)
	p.Controller.NoteBurn(controlplane.SLOBurnRecord{
		At:        ev.At,
		Family:    ev.Family,
		Start:     ev.Start,
		ShortBurn: ev.ShortBurn,
		LongBurn:  ev.LongBurn,
	})
	// Emergency accuracy degradation reacts to the burn edge immediately —
	// never waiting for the next control period. The guard's lock is a leaf,
	// so calling it under the recorder's lock is safe.
	p.publishOverload(p.Guard.OnBurn(ev.At, ev.Family, ev.Start))
	// A burn's leading edge also snapshots an incident bundle, but not from
	// here: Trigger must not run under the recorder's lock with a stale ring,
	// so the next Sample picks the event up from the recorder's burn log.
	if ev.Start && p.cfg.OnBurnStart != nil {
		p.cfg.OnBurnStart(ev.At)
	}
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
		p.Controller.NoteOverload(controlplane.OverloadRecord{
			At:      ch.At,
			Family:  ch.Family,
			Kind:    string(ch.Kind),
			Level:   ch.Level,
			Episode: ch.Episode,
			Reason:  ch.Reason,
		})
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
// as exactly one of served, late or dropped. Drivers call it once nothing is
// in flight any more — at the end of a simulation run, after a clean drain.
func (p *Plane) CheckConservation() error {
	for f, name := range p.Collector.Families() {
		s := p.Collector.Summarize(f)
		if s.Queries != s.Served+s.Late+s.Dropped {
			return fmt.Errorf("conservation violated for %s: %d arrivals, %d served + %d late + %d dropped",
				name, s.Queries, s.Served, s.Late, s.Dropped)
		}
	}
	return nil
}
