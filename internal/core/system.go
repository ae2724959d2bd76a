package core

import (
	"fmt"
	"slices"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/dataplane"
	"proteus/internal/metrics"
	"proteus/internal/overload"
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// System is one assembled inference-serving system under simulation: the
// shared serving engine (internal/dataplane) driven from the virtual clock.
// Every time it returns — a batch's completion, a batching wake-up, the end
// of a model load — becomes an event here.
type System struct {
	cfg     Config
	engine  *simulation.Engine
	plane   *dataplane.Plane
	workers []*worker

	reallocErr error

	// rebuildTable's scratch: one rebuild per model load adds up over a run.
	ready []bool
	profs []overload.DeviceProfile

	// Hardware scaling in tandem (§7): extra devices provisioned and in
	// flight.
	extraProvisioned int
	extraPending     int
}

// worker pairs one device's serving state with its pending events.
type worker struct {
	dev *dataplane.Device
	// wake is the pending batching (or load-completion) wake-up; done the
	// in-flight batch's completion, tracked so a failure can cancel it. The
	// zero handle means none is pending.
	wake simulation.Handle
	done simulation.Handle
	// onWake and onDone are the two events' callbacks, built once per worker
	// so that scheduling a batch allocates nothing.
	onWake func()
	onDone func()
}

func (s *System) addWorker(dev *dataplane.Device) {
	w := &worker{dev: dev}
	w.onWake = func() {
		w.wake = simulation.Handle{}
		s.step(w)
	}
	w.onDone = func() { s.complete(w) }
	s.workers = append(s.workers, w)
}

func (s *System) cancelWake(w *worker) {
	s.engine.Cancel(w.wake)
	w.wake = simulation.Handle{}
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := simConfig(cfg)
	if err != nil {
		return nil, err
	}
	plane, err := dataplane.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		engine: simulation.NewEngine(),
		plane:  plane,
	}
	for _, dev := range plane.Devices {
		s.addWorker(dev)
	}
	return s, nil
}

// Result is the outcome of a simulation run.
type Result struct {
	// Collector holds the full per-bin time series.
	Collector *metrics.Collector
	// Summary aggregates all families (§6.1.4 metrics).
	Summary metrics.Summary
	// PerFamily aggregates each family separately (Fig. 9).
	PerFamily []metrics.Summary
	// Plans is the controller's re-allocation history.
	Plans []controlplane.PlanRecord
	// ModelLoads counts model-variant load events across workers.
	ModelLoads int
	// ExtraDevices counts servers provisioned by the §7 hardware-scaling
	// extension during the run (0 unless Config.Elastic is set).
	ExtraDevices int
	// Wall is the real time the simulation took.
	Wall time.Duration
}

// Run replays the trace through the system and returns the collected
// metrics. The first allocation is computed from the trace's initial demand
// (the paper's systems likewise pre-load an initial plan).
func (s *System) Run(tr *trace.Trace) (*Result, error) {
	if len(tr.Families) != len(s.cfg.Families) {
		return nil, fmt.Errorf("core: trace has %d families, system has %d", len(tr.Families), len(s.cfg.Families))
	}
	// Initial plan from the first control period's average demand.
	warm := int(s.plane.Controller.Period / time.Second)
	if warm > tr.Seconds() {
		warm = tr.Seconds()
	}
	initial := make([]float64, len(s.cfg.Families))
	if warm > 0 {
		for t := 0; t < warm; t++ {
			for q := range initial {
				initial[q] += tr.Demand[t][q]
			}
		}
		for q := range initial {
			initial[q] /= float64(warm)
		}
	}
	arrivals := tr.Arrivals(s.plane.RNG.Split())
	return s.RunArrivals(arrivals, time.Duration(tr.Seconds())*time.Second, initial)
}

// RunArrivals replays an explicit arrival sequence for the given duration,
// pre-loading an initial plan for initialDemand. It is the entry point for
// the §6.4 batching experiments, whose arrival processes are not Poisson.
// Arrivals are handled in time order, equal times in slice order; a slice
// that is not sorted by time is replayed from a stable-sorted copy. A run
// whose books do not balance — some family with arrivals ≠ served + late +
// dropped — is an error.
func (s *System) RunArrivals(arrivals []trace.Arrival, duration time.Duration, initialDemand []float64) (*Result, error) {
	start := time.Now() //lint:allow determinism wall-clock Result.Wall measurement; the simulated clock is engine.Now
	if len(initialDemand) != len(s.cfg.Families) {
		return nil, fmt.Errorf("core: initial demand has %d entries, want %d", len(initialDemand), len(s.cfg.Families))
	}
	if !slices.IsSortedFunc(arrivals, trace.ByTime) {
		arrivals = slices.Clone(arrivals)
		slices.SortStableFunc(arrivals, trace.ByTime)
	}
	if len(arrivals) > 0 && arrivals[0].Time < 0 {
		return nil, fmt.Errorf("core: arrival at %v, before the run starts", arrivals[0].Time)
	}
	ctl := s.plane.Controller
	initial, err := s.plane.InitialPlan(initialDemand)
	if err != nil {
		return nil, fmt.Errorf("core: initial allocation: %w", err)
	}
	s.applyPlan(initial, true)

	// Everything known before the clock starts is scheduled here, ahead of
	// anything the run produces. The order of these loops is the firing order
	// of equal-time ticks and so part of every output.

	// Periodic controller invocations for dynamic allocators.
	if ctl.Dynamic() {
		periodic := func() { s.trigger("periodic") }
		for at := ctl.Period; at < duration; at += ctl.Period {
			s.engine.Schedule(at, periodic)
		}
	}

	// The observability tick: device samples at the tsdb recorder's cadence,
	// the flight recorder's ring refresh riding the same events (a flight
	// recorder comes only with a tsdb recorder).
	if si := s.cfg.TSDB.SampleInterval(); si > 0 {
		for at := si; at <= duration; at += si {
			s.engine.Schedule(at, s.sample)
		}
	}

	// Overload-guard ticks on the virtual clock: escalation, deferred
	// degrades and restores advance at a fixed 1s cadence.
	if s.plane.Guard != nil {
		for at := time.Second; at <= duration; at += time.Second {
			s.engine.Schedule(at, func() { s.plane.GuardTick(at) })
		}
	}

	// Fault injection: the schedule's events become simulation events.
	if s.cfg.Faults != nil {
		for _, ev := range s.cfg.Faults.Events {
			s.engine.Schedule(ev.FailAt, func() { s.failDevice(ev.Device) })
			if ev.RecoverAt > 0 {
				s.engine.Schedule(ev.RecoverAt, func() { s.recoverDevice(ev.Device) })
			}
		}
	}

	// Arrivals are a cursor merged with the event queue, not events: each is
	// handled after every queued event strictly before its time and ahead of
	// every event at its time.
	for _, a := range arrivals {
		s.engine.AdvanceTo(a.Time)
		s.onArrival(a)
	}
	s.engine.Run()
	if s.reallocErr != nil {
		return nil, s.reallocErr
	}
	if err := s.plane.CheckConservation(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res := &Result{
		Collector: s.plane.Collector,
		Summary:   s.plane.Collector.Summarize(-1),
		Plans:     ctl.History(),
		Wall:      time.Since(start), //lint:allow determinism reporting-only wall-clock measurement
	}
	for q := range s.cfg.Families {
		res.PerFamily = append(res.PerFamily, s.plane.Collector.Summarize(q))
	}
	for _, w := range s.workers {
		res.ModelLoads += w.dev.Loads()
	}
	res.ExtraDevices = s.extraProvisioned
	return res, nil
}

// sample snapshots every device into the observability tick.
func (s *System) sample() {
	now := s.engine.Now()
	states := make([]tsdb.DeviceState, len(s.workers))
	for d, w := range s.workers {
		states[d] = w.dev.State(now)
	}
	s.plane.Sample(now, states)
}

func (s *System) onArrival(a trace.Arrival) {
	now := s.engine.Now()
	s.route(now, s.plane.Arrive(now, a.Family))

	// Burst detection on the data path's monitoring daemon (§3).
	if s.plane.Stats.AnyBurst(now) {
		s.trigger("burst")
	}
}

// route sends q to the device the plane picks (or accounts its drop) and
// lets that device take a batching step.
func (s *System) route(now time.Duration, q dataplane.Query) {
	d, cause := s.plane.Route(now, q)
	if d < 0 {
		s.plane.Drop(now, q, cause)
		return
	}
	w := s.workers[d]
	if !w.dev.Enqueue(now, q) {
		s.requeue(now, q, telemetry.CauseStaleRoute)
		return
	}
	s.step(w)
}

// requeue returns a stranded query to the router unless the plane drops it.
func (s *System) requeue(now time.Duration, q dataplane.Query, cause telemetry.Cause) {
	if _, retry := s.plane.Requeue(now, &q, cause); retry {
		s.route(now, q)
	}
}

// step lets w's device take one batching step — on arrival, batch
// completion, load completion and wake-up — and schedules what it returns. A
// wake-up replaces the pending one: rescheduling re-keys its queue entry, the
// order a cancel and a fresh schedule would give.
func (s *System) step(w *worker) {
	now := s.engine.Now()
	st := w.dev.Step(now)
	for _, dr := range st.Dropped {
		s.plane.Drop(now, dr.Query, dr.Cause)
	}
	switch {
	case len(st.Batch.Queries) > 0:
		s.cancelWake(w)
		s.plane.TraceBatch(st.Batch)
		w.done = s.engine.Schedule(st.Batch.Done, w.onDone)
	case st.Wake:
		w.wake = s.engine.Reschedule(w.wake, st.WakeAt, w.onWake)
	default:
		s.cancelWake(w)
	}
}

// complete finishes w's in-flight batch at the current time.
func (s *System) complete(w *worker) {
	now := s.engine.Now()
	w.done = simulation.Handle{}
	b, _ := w.dev.Finish(now)
	for _, q := range b.Queries {
		s.plane.Complete(now, q, b)
	}
	s.step(w)
}

// trigger schedules what the controller's re-plan policy makes of trigger
// now: a re-plan, or its one pending retry as an event.
func (s *System) trigger(trigger string) {
	ctl := s.plane.Controller
	switch act, at := ctl.Decide(s.engine.Now(), trigger); act {
	case controlplane.ReplanNow:
		s.replan(trigger, trigger == "failure")
	case controlplane.ArmRetry:
		s.engine.Schedule(at, func() { s.replan(ctl.Retry()) })
	}
}

// replan solves a re-plan and schedules its plan's apply; a failed solve is
// a run error.
func (s *System) replan(trigger string, failure bool) {
	now := s.engine.Now()
	r := s.plane.Replan(now, trigger, failure)
	if err := s.plane.Solve(&r); err != nil {
		if s.reallocErr == nil {
			s.reallocErr = fmt.Errorf("core: re-allocation at %v: %w", now, err)
		}
		return
	}
	if r.Plan.Allocation == nil {
		return
	}
	// The plan and its audit sequence number (queries enqueued meanwhile
	// blame the plan they ran under) take effect after the control-path
	// delay (§4: the solver is off the critical path).
	s.engine.After(planApplyDelay, func() { s.applyPlan(r, false) })

	// Hardware scaling in tandem (§7): a plan that sheds demand means even
	// the lowest-accuracy hosting cannot cover the load — start a server;
	// accuracy scaling carries the burst until it arrives.
	if e := s.cfg.Elastic; e != nil && r.Plan.DemandScale < 0.999 &&
		s.extraProvisioned+s.extraPending < e.MaxExtra {
		s.extraPending++
		s.engine.After(e.ProvisionDelay, s.provisionDevice)
	}
}

// provisionDevice adds one elastic device to the fleet and re-allocates so
// the new capacity is put to use immediately.
func (s *System) provisionDevice() {
	e := s.cfg.Elastic
	s.extraPending--
	s.extraProvisioned++
	ctl := s.plane.Controller
	grown := ctl.Cluster().WithExtra(e.Type)
	ctl.SetCluster(grown)
	dev := s.plane.AddDevice(grown.Device(grown.Size() - 1))
	s.addWorker(dev)
	s.trigger("provision")
}

// applyPlan installs a solved plan: per-device hosted variants (with load
// delays and queue re-routing) and the routing table.
func (s *System) applyPlan(r dataplane.Replan, initial bool) {
	now := s.engine.Now()
	if err := s.plane.SetPlan(now, r); err != nil {
		// Plans come from our own controller so the shapes always agree;
		// surface any disagreement as a run error rather than panicking.
		s.reallocErr = err
		return
	}
	readyAt := now + modelLoadDelay
	if initial {
		// Initial plan: models are loaded before the experiment starts.
		readyAt = 0
	}
	down := s.plane.Down()
	var rerouted []dataplane.Query
	for d, w := range s.workers {
		if down[d] {
			// Failed devices keep hosting nothing; recovery reloads from the
			// then-current plan.
			continue
		}
		moved, changed := w.dev.Rehost(s.plane.Hosted(d), readyAt)
		if !changed {
			continue
		}
		s.cancelWake(w)
		rerouted = append(rerouted, moved...)
		s.afterLoad(w, now)
	}
	s.rebuildTable()
	for _, q := range rerouted {
		s.route(now, q)
	}
	for _, w := range s.workers {
		s.step(w)
	}
}

// afterLoad schedules w's re-entry into the routing table for the moment
// its model finishes loading, if it is not ready already.
func (s *System) afterLoad(w *worker, now time.Duration) {
	if until := w.dev.LoadingUntil(); until > now {
		s.engine.Schedule(until, func() {
			s.rebuildTable()
			s.step(w)
		})
	}
}

// rebuildTable rebuilds the routing table from the plan in force and the
// devices' current hosting.
func (s *System) rebuildTable() {
	now := s.engine.Now()
	s.ready, s.profs = s.ready[:0], s.profs[:0]
	for _, w := range s.workers {
		ready, prof := w.dev.View(now)
		s.ready, s.profs = append(s.ready, ready), append(s.profs, prof)
	}
	s.plane.Rebuild(now, s.ready, s.profs)
}
