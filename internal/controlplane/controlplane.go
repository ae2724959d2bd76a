// Package controlplane implements the Proteus controller logic (§3): the
// statistics collector that aggregates per-application demand from the load
// balancers' monitoring daemons, and the re-allocation policy — periodic
// MILP invocations (30 s in the paper) plus burst-triggered early
// re-allocations with a cooldown. The policy is clock-free: the hosting
// engine (simulator or live cluster) passes the time in and schedules what
// Controller.Decide asks for, off the data path.
package controlplane

import (
	"fmt"
	"sync"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/router"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Stats is the statistics collector: one monitoring daemon per family.
type Stats struct {
	Monitors []*router.Monitor

	// AnyBurst's answer for the second starting at burstFrom (-1: none
	// held). Burst reads only the last completed second's bucket and the
	// planned capacities, so within one second the answer changes only
	// through SetPlanned or an observation for an earlier second.
	burstFrom time.Duration
	burst     bool
}

// NewStats builds a collector with one monitor per family.
func NewStats(families, windowSeconds int, burstFactor float64) *Stats {
	s := &Stats{Monitors: make([]*router.Monitor, families), burstFrom: -1}
	for q := range s.Monitors {
		s.Monitors[q] = router.NewMonitor(windowSeconds, burstFactor)
	}
	return s
}

// Observe records an arrival of family q at time t.
func (s *Stats) Observe(t time.Duration, q int) {
	if t < s.burstFrom {
		s.burstFrom = -1
	}
	s.Monitors[q].Observe(t)
}

// Estimates returns the current per-family demand estimates in QPS.
func (s *Stats) Estimates(t time.Duration) []float64 {
	out := make([]float64, len(s.Monitors))
	for q, m := range s.Monitors {
		out[q] = m.Rate(t)
	}
	return out
}

// AnyBurst reports whether any family's instantaneous demand exceeds its
// planned capacity by the burst factor.
func (s *Stats) AnyBurst(t time.Duration) bool {
	if from := t.Truncate(time.Second); from != s.burstFrom {
		s.burstFrom, s.burst = from, false
		for _, m := range s.Monitors {
			if m.Burst(t) {
				s.burst = true
				break
			}
		}
	}
	return s.burst
}

// SetPlanned records each family's planned serving capacity from a new
// allocation. The served slice must cover exactly the monitored families —
// a mismatched length means the plan and the monitor set disagree about the
// family space, which would silently mis-arm burst detection.
func (s *Stats) SetPlanned(served []float64) error {
	if len(served) != len(s.Monitors) {
		return fmt.Errorf("controlplane: planned capacities cover %d families, monitors cover %d",
			len(served), len(s.Monitors))
	}
	for q, m := range s.Monitors {
		m.SetPlanned(served[q])
	}
	s.burstFrom = -1
	return nil
}

// DeviceChange is one device's hosting transition in an allocation diff.
// Empty From/To mean the device was (or became) idle.
type DeviceChange struct {
	Device int    `json:"device"`
	From   string `json:"from"`
	To     string `json:"to"`
}

// PlanRecord is one entry of the controller's decision audit log: what was
// decided, why (trigger), by which stage of the solver chain, at what
// solver cost, and how the fleet changed relative to the previous plan.
type PlanRecord struct {
	// Seq numbers audit records monotonically from 1 in append order
	// (error records included). Trace events stamp the sequence number of
	// the plan in force at enqueue, so latency attribution can tell which
	// control decision a query ran under; 0 on a trace event means no plan
	// had been applied yet.
	Seq               int           `json:"seq"`
	At                time.Duration `json:"at_ns"`
	Demand            []float64     `json:"demand"`
	PredictedAccuracy float64       `json:"predicted_accuracy"`
	DemandScale       float64       `json:"demand_scale"`
	// SolveTime is the solve's wall time. It and Stats.SolverTime are what
	// two runs of one seed disagree on, so neither is serialized: audit
	// logs, incident bundles and reports stay byte-identical.
	SolveTime time.Duration `json:"-"`
	Trigger   string        `json:"trigger"` // "initial", "periodic", "burst", "provision", "failure", "recovery"
	// Solver names the allocator that produced the plan: the primary's name,
	// "<name> (fallback)" when the fallback stepped in, or "carry-forward"
	// when the last feasible plan was projected onto the surviving devices.
	Solver string `json:"solver"`
	// Stage identifies which link of the MILP → greedy → carry-forward chain
	// produced the plan: "primary", "fallback", "carry-forward", or "error"
	// for an audit record of a fully failed solve (no plan produced).
	Stage string `json:"stage"`
	// Err preserves the solve error for fallback / carry-forward / error
	// records.
	Err string `json:"error,omitempty"`
	// Stats carries branch-and-bound internals (objective, bound, gap,
	// nodes, backoffs) when an optimizing allocator produced the plan.
	Stats          allocator.SolverStats `json:"solver_stats"`
	HostedVariants map[string]int        `json:"hosted_variants"`
	// Changes lists every device whose hosted variant differs from the
	// previous plan (the whole fleet on the first plan). Loads counts
	// transitions onto a variant, Unloads transitions off one.
	Changes []DeviceChange `json:"changes,omitempty"`
	Loads   int            `json:"loads"`
	Unloads int            `json:"unloads"`
	// RoutingDelta is the total L1 distance between this plan's routing
	// matrix and the previous one — 0 for identical query assignment, up to
	// 2·families when every family moved all its traffic.
	RoutingDelta float64 `json:"routing_delta"`
	// SLOBurns lists the burn-state transitions the SLO monitor reported
	// since the previous audit record, so each control decision carries the
	// burn context it was made under.
	SLOBurns []tsdb.BurnEvent `json:"slo_burns,omitempty"`
	// Overloads lists the overload-guard transitions (emergency accuracy
	// degradations, escalations and restores) since the previous audit
	// record.
	Overloads []overload.Change `json:"overloads,omitempty"`
}

// Controller owns the allocator and the re-allocation schedule.
type Controller struct {
	// Period is the regular re-allocation interval (30 s in the paper).
	Period time.Duration
	// BurstCooldown is the minimum spacing of burst-triggered
	// re-allocations.
	BurstCooldown time.Duration

	alloc allocator.Allocator
	// fallback steps in when the primary allocator errors (MILP infeasible
	// past its back-off budget, solver timeout surfaced as an error): a
	// cheap heuristic restricted — like every allocator — to the cluster's
	// healthy subset. Defaults to the greedy INFaaS-Accuracy heuristic.
	fallback allocator.Allocator
	// lastPlan is the most recent feasible plan; when both allocators fail
	// it is projected onto the surviving devices instead of aborting.
	lastPlan *allocator.Allocation
	cluster  *cluster.Cluster
	families []models.Family
	slos     []time.Duration

	last    time.Duration
	started bool
	// retry marks the one pending retry Decide armed; retryTrigger is the
	// newest trigger that armed or joined it, retryFailure whether any of
	// them was a failure.
	retry        bool
	retryTrigger string
	retryFailure bool

	// mu guards history and pendingBurns: the control loop appends while
	// introspection endpoints (/debug/allocations) and the SLO monitor's
	// burn callback write concurrently.
	mu      sync.Mutex
	history []PlanRecord
	// seq is the monotone audit-record counter; unlike history it never
	// resets when the ring drops old records.
	seq int
	// historyLimit bounds the audit log: once it holds this many records
	// the oldest are dropped, so long live runs hold steady-state memory.
	historyLimit int
	// recordHook, when set, observes every appended audit record (the
	// flight recorder's allocator-fallback trigger). Called after the
	// history lock is released, so the hook may call History itself.
	recordHook func(PlanRecord)
	// pendingBurns buffers burn transitions until the next audit record
	// drains them into its SLOBurns field; pendingOverloads does the same
	// for overload-guard transitions.
	pendingBurns     []tsdb.BurnEvent
	pendingOverloads []overload.Change

	counters telemetry.ControlCounters
}

// NewController builds a controller that re-plans every period and spaces
// burst re-plans cooldown apart (dataplane.New resolves both).
func NewController(a allocator.Allocator, c *cluster.Cluster, families []models.Family, slos []time.Duration, period, cooldown time.Duration) *Controller {
	ctl := &Controller{
		Period:        period,
		BurstCooldown: cooldown,
		alloc:         a,
		cluster:       c,
		families:      families,
		slos:          slos,
		historyLimit:  DefaultHistoryLimit,
	}
	if a == nil || a.Name() != "infaas_v2" {
		ctl.fallback = allocator.NewInfaasAccuracy()
	}
	return ctl
}

// Instrument resolves the controller's counters from a telemetry registry
// (a nil registry leaves them inert). Call before the first Reallocate.
func (c *Controller) Instrument(r *telemetry.Registry) {
	c.counters = telemetry.NewControlCounters(r)
}

// SetCluster replaces the device fleet for subsequent re-allocations (the
// §7 hardware-scaling extension grows it when provisioned servers arrive).
func (c *Controller) SetCluster(cl *cluster.Cluster) { c.cluster = cl }

// Cluster returns the current device fleet.
func (c *Controller) Cluster() *cluster.Cluster { return c.cluster }

// Dynamic reports whether re-allocation over time is enabled.
func (c *Controller) Dynamic() bool { return c.alloc.Dynamic() }

// Action is Decide's answer to a trigger: Hold (nothing to do), ReplanNow
// (under the trigger, at once) or ArmRetry (arm the one pending retry for
// the returned time; when it fires, Retry names the trigger).
type Action int

// Decide's answers.
const (
	Hold Action = iota
	ReplanNow
	ArmRetry
)

// Decide is the re-plan policy (§3) both engines schedule: what a trigger
// at now leads to. Static allocators never re-plan. "periodic" (see
// DemandChanged) and "provision" re-plan now. "burst" re-plans outside the
// cooldown — BurstCooldown from the last solve attempt, its end outside —
// and is dropped inside it. "failure" and "recovery" inside it arm the one pending retry at its end, and while that is pending
// only relabel it. Decide and Retry belong to Reallocate's goroutine.
func (c *Controller) Decide(now time.Duration, trigger string) (Action, time.Duration) {
	if !c.Dynamic() {
		return Hold, 0
	}
	var wait time.Duration
	if c.started {
		wait = c.last + c.BurstCooldown - now
	}
	switch trigger {
	case "burst":
		if wait > 0 {
			return Hold, 0
		}
	case "failure", "recovery":
		if c.retry {
			c.retryTrigger, c.retryFailure = trigger, c.retryFailure || trigger == "failure"
			return Hold, 0
		}
		if wait > 0 {
			c.retry, c.retryTrigger, c.retryFailure = true, trigger, trigger == "failure"
			return ArmRetry, now + wait
		}
	}
	return ReplanNow, 0
}

// Retry hands over the pending retry when it fires: the newest trigger that
// armed or joined it, which labels the plan, and whether a failure rode it,
// so that installing the plan closes the pending failures. The retry
// re-plans without asking the cooldown again.
func (c *Controller) Retry() (trigger string, failure bool) {
	c.retry = false
	return c.retryTrigger, c.retryFailure
}

// Plan is what Reallocate produced: the allocation and the sequence number
// of its audit record, which trace events stamp once the plan is in force.
type Plan struct {
	*allocator.Allocation
	Seq int
}

// Reallocate invokes the allocator with the demand estimate and records the
// plan. Trigger labels the cause for the history. On a primary-allocator
// error the fallback chain engages: first the greedy fallback restricted to
// the healthy devices, then — if that errors too — the last feasible plan
// projected onto the survivors. Only when all three stages fail does
// Reallocate return an error, and even then the attempt time is recorded so
// the cooldown throttles erroring allocators like successful ones.
func (c *Controller) Reallocate(now time.Duration, demand []float64, trigger string) (Plan, error) {
	if len(demand) != len(c.families) {
		return Plan{}, fmt.Errorf("controlplane: demand has %d entries, want %d", len(demand), len(c.families))
	}
	in := &allocator.Input{
		Cluster:  c.cluster,
		Families: c.families,
		SLOs:     c.slos,
		Demand:   demand,
	}
	plan, err := c.alloc.Allocate(in)
	solver, stage := c.alloc.Name(), "primary"
	var stageErr string
	if err != nil {
		solveErr := err
		stageErr = err.Error()
		plan = nil
		if c.fallback != nil {
			fb, ferr := c.fallback.Allocate(in)
			if ferr == nil {
				plan, solver, stage = fb, c.fallback.Name()+" (fallback)", "fallback"
				c.counters.FallbackPlans.Inc()
			} else {
				solveErr = fmt.Errorf("%w; fallback %s: %v", err, c.fallback.Name(), ferr)
				stageErr = solveErr.Error()
			}
		}
		if plan == nil && c.lastPlan != nil {
			plan, solver, stage = allocator.ProjectHealthy(c.lastPlan, in), "carry-forward", "carry-forward"
			c.counters.CarryForwardPlans.Inc()
		}
		if plan == nil {
			// Record the attempt so the cooldown applies to failed solves
			// too; without this an erroring allocator is re-invoked at every
			// tick with no backoff. The failed attempt still enters the audit
			// log (Stage "error") so operators can see every control period.
			c.last = now
			c.started = true
			c.counters.FailedSolves.Inc()
			c.append(PlanRecord{
				At:      now,
				Demand:  append([]float64(nil), demand...),
				Trigger: trigger,
				Solver:  "none",
				Stage:   "error",
				Err:     stageErr,
			})
			return Plan{}, solveErr
		}
	}
	c.last = now
	c.started = true
	rec := PlanRecord{
		At:                now,
		Demand:            append([]float64(nil), demand...),
		PredictedAccuracy: plan.PredictedAccuracy,
		DemandScale:       plan.DemandScale,
		SolveTime:         plan.SolveTime,
		Trigger:           trigger,
		Solver:            solver,
		Stage:             stage,
		Err:               stageErr,
		Stats:             plan.Stats,
		HostedVariants:    map[string]int{},
	}
	for d := range plan.Hosted {
		if id := plan.HostedID(d); id != "" {
			rec.HostedVariants[id]++
		}
	}
	diffPlans(&rec, c.lastPlan, plan)
	c.lastPlan = plan
	c.counters.Reallocations.Inc()
	return Plan{plan, c.append(rec)}, nil
}

// diffPlans fills rec's allocation-diff fields (per-device hosting
// transitions, load/unload counts, routing L1 distance) comparing the new
// plan against the previous one. A nil previous plan diffs against an idle
// fleet, so the first plan's record lists every initial placement.
func diffPlans(rec *PlanRecord, prev, next *allocator.Allocation) {
	prevHosted := func(d int) string {
		if prev == nil || d >= len(prev.Hosted) {
			return ""
		}
		return prev.HostedID(d)
	}
	for d := range next.Hosted {
		from, to := prevHosted(d), next.HostedID(d)
		if from == to {
			continue
		}
		rec.Changes = append(rec.Changes, DeviceChange{Device: d, From: from, To: to})
		if to != "" {
			rec.Loads++
		}
		if from != "" {
			rec.Unloads++
		}
	}
	for q := range next.Routing {
		for d, y := range next.Routing[q] {
			old := 0.0
			if prev != nil && q < len(prev.Routing) && d < len(prev.Routing[q]) {
				old = prev.Routing[q][d]
			}
			diff := y - old
			if diff < 0 {
				diff = -diff
			}
			rec.RoutingDelta += diff
		}
	}
}

// DefaultHistoryLimit is the audit-log ring size: generous enough that a
// simulated run or a day of 30 s control periods is fully retained, small
// enough to bound live memory.
const DefaultHistoryLimit = 256

// SetRecordHook installs fn to observe every appended audit record. The
// hook runs on the control-loop goroutine after the history lock is
// released (it receives the final record, burn and overload context
// attached, and may safely call back into the controller).
func (c *Controller) SetRecordHook(fn func(PlanRecord)) {
	c.mu.Lock()
	c.recordHook = fn
	c.mu.Unlock()
}

// append adds a record to the audit log under the history lock, stamping
// its sequence number, which it returns, and attaching (and clearing) the
// burn transitions buffered since the last record.
func (c *Controller) append(rec PlanRecord) int {
	c.mu.Lock()
	c.seq++
	rec.Seq = c.seq
	if len(c.pendingBurns) > 0 {
		rec.SLOBurns = c.pendingBurns
		c.pendingBurns = nil
	}
	if len(c.pendingOverloads) > 0 {
		rec.Overloads = c.pendingOverloads
		c.pendingOverloads = nil
	}
	c.history = append(c.history, rec)
	if over := len(c.history) - c.historyLimit; over > 0 {
		c.history = append(c.history[:0], c.history[over:]...)
	}
	hook := c.recordHook
	c.mu.Unlock()
	if hook != nil {
		hook(rec)
	}
	return rec.Seq
}

// NoteBurn records an SLO burn-state transition for the next audit record.
// Safe to call concurrently with Reallocate and History.
func (c *Controller) NoteBurn(ev tsdb.BurnEvent) {
	c.mu.Lock()
	c.pendingBurns = append(c.pendingBurns, ev)
	c.mu.Unlock()
}

// NoteOverload records an overload-guard transition for the next audit
// record. Safe to call concurrently with Reallocate and History.
func (c *Controller) NoteOverload(ch overload.Change) {
	c.mu.Lock()
	c.pendingOverloads = append(c.pendingOverloads, ch)
	c.mu.Unlock()
}

// DemandChanged reports whether the demand estimate differs from the last
// plan's target by more than the relative threshold for any family (with an
// absolute floor of 1 QPS so idle families do not trigger churn).
func (c *Controller) DemandChanged(demand []float64, threshold float64) bool {
	c.mu.Lock()
	var last []float64
	// Error records audit failed attempts; no plan was produced for their
	// demand, so they don't count as the baseline.
	for i := len(c.history) - 1; i >= 0; i-- {
		if c.history[i].Stage != "error" {
			last = c.history[i].Demand
			break
		}
	}
	c.mu.Unlock()
	if last == nil {
		return true
	}
	if len(last) != len(demand) {
		return true
	}
	for q := range demand {
		diff := demand[q] - last[q]
		if diff < 0 {
			diff = -diff
		}
		if diff > threshold*last[q]+1 {
			return true
		}
	}
	return false
}

// History returns a copy of the re-allocation audit log so far. Safe to
// call concurrently with Reallocate.
func (c *Controller) History() []PlanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PlanRecord(nil), c.history...)
}
