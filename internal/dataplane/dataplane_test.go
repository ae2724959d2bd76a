package dataplane

import (
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
)

// spyPolicy wraps a policy and records what Observe was told.
type spyPolicy struct {
	batching.Policy
	completed, violations int
}

func (p *spyPolicy) Observe(completed, violations int) {
	p.completed, p.violations = completed, violations
	p.Policy.Observe(completed, violations)
}

// harness builds a plane over a 4-device fleet whose device 0 (a CPU) hosts
// efficientnet's fastest variant — the only one SLO-feasible there — so
// device behaviour can be observed in isolation, without a driver.
func harness(t *testing.T, policy batching.Policy, mut func(*Config)) (*Plane, *Device) {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	cfg := Config{
		Cluster:         cluster.ScaledTestbed(4),
		Families:        fams,
		SLOMultiplier:   2,
		Allocator:       allocator.NewInfaasAccuracy(),
		Batching:        func() batching.Policy { return policy },
		ControlPeriod:   30 * time.Second,
		Cooldown:        10 * time.Second,
		DemandWindow:    30 * time.Second,
		BurstFactor:     1.5,
		MetricsInterval: time.Second,
		MaxRetries:      1,
		Seed:            42,
	}
	if mut != nil {
		mut(&cfg)
	}
	p := New(cfg)
	d := p.Devices[0]
	d.setHosted(&allocator.VariantRef{Family: 0, Variant: fams[0].Variants[0]}, 0)
	return p, d
}

// enqueue arrives n family-0 queries at now with the given deadline on d.
func enqueue(t *testing.T, p *Plane, d *Device, now, deadline time.Duration, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		q := p.Arrive(now, 0)
		q.Deadline = deadline
		if !d.Enqueue(now, q) {
			t.Fatal("healthy device refused a query")
		}
	}
}

// TestStepDropsExpiredBeforeAnyPolicy pins the shared step's first stage for
// every batching policy: a query that cannot finish within its deadline even
// alone (deadline < now + T(1)) is dropped with cause expired before the
// policy is consulted — static-4 would otherwise execute it late.
func TestStepDropsExpiredBeforeAnyPolicy(t *testing.T) {
	for _, name := range []string{"accscale", "aimd", "nexus", "static-4"} {
		factory, err := batching.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, d := harness(t, factory(), nil)
		enqueue(t, p, d, 0, time.Millisecond, 1)
		st := d.Step(0)
		if len(st.Dropped) != 1 || st.Dropped[0].Cause != telemetry.CauseExpired {
			t.Fatalf("%s: doomed query not dropped as expired: %+v", name, st)
		}
		if len(st.Batch.Queries) != 0 || len(d.queue) != 0 {
			t.Fatalf("%s: doomed query still queued or executing: %+v", name, st)
		}
	}
}

func TestStepExecutesAndFinishObserves(t *testing.T) {
	spy := &spyPolicy{Policy: batching.NewAIMD()}
	p, d := harness(t, spy, nil)
	slo := p.slos[0]
	enqueue(t, p, d, 0, 4*slo, 3)
	now, done := time.Duration(0), 0
	for done < 3 {
		st := d.Step(now)
		if len(st.Batch.Queries) == 0 {
			t.Fatalf("work-conserving policy did not execute with %d queued: %+v", len(d.queue), st)
		}
		now = st.Batch.Done
		b, ok := d.Finish(now)
		if !ok {
			t.Fatal("Finish lost a batch nobody failed")
		}
		for _, q := range b.Queries {
			p.Complete(now, q, b)
		}
		done += len(b.Queries)
	}
	sum := p.Collector.Summarize(-1)
	if sum.Served+sum.Late != 3 {
		t.Fatalf("batch incomplete: %+v", sum)
	}
	if spy.completed == 0 {
		t.Fatal("the policy never observed a finished batch")
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestStepWithoutModelShedsEverything(t *testing.T) {
	p, d := harness(t, batching.NewAccScale(), nil)
	d.setHosted(nil, 0)
	enqueue(t, p, d, 0, time.Second, 1)
	st := d.Step(0)
	if len(st.Dropped) != 1 || st.Dropped[0].Cause != telemetry.CauseNoRoute {
		t.Fatalf("idle-device query not shed as no_route: %+v", st)
	}
}

func TestStepHoldsQueueWhileLoading(t *testing.T) {
	p, d := harness(t, batching.NewAccScale(), nil)
	load := 2 * time.Second
	d.setHosted(d.hosted, load)
	enqueue(t, p, d, 0, load+3*p.slos[0], 1)
	st := d.Step(0)
	if !st.Wake || !st.Loading || st.WakeAt != load || len(st.Dropped) != 0 {
		t.Fatalf("loading device must ask to be woken at the end of the load: %+v", st)
	}
	if ready, _ := d.View(0); ready {
		t.Fatal("loading device reported ready for routing")
	}
	// AccScale may wait for a second query; whatever it does, nothing runs
	// before the load delay has passed.
	for now := load; ; {
		st = d.Step(now)
		if len(st.Batch.Queries) == 1 {
			if st.Batch.Start < load {
				t.Fatalf("batch started at %v, before the load finished at %v", st.Batch.Start, load)
			}
			return
		}
		if !st.Wake || st.Loading {
			t.Fatalf("query neither executed nor waited for: %+v", st)
		}
		now = st.WakeAt
	}
}

func TestRateEstimator(t *testing.T) {
	_, d := harness(t, batching.NewAccScale(), nil)
	// 100 arrivals in second 0, then silence.
	for i := 0; i < 100; i++ {
		d.noteArrival(time.Duration(i) * 10 * time.Millisecond)
	}
	if r := d.arrivalRate(); r < 90 {
		t.Fatalf("open-bucket rate %v, want ~100", r)
	}
	// Close the bucket and decay through idle seconds.
	d.noteArrival(5 * time.Second)
	if r := d.arrivalRate(); r > 40 {
		t.Fatalf("rate %v did not decay after idle seconds", r)
	}
}

// TestOneCompletionTimestampPerBatch pins that a batch's single completion
// time decides served versus late for every query in it and the violation
// count the policy observes: a two-query batch finishing between the two
// deadlines is one served, one late, one violation — everywhere.
func TestOneCompletionTimestampPerBatch(t *testing.T) {
	spy := &spyPolicy{Policy: batching.NewStatic(2)}
	p, d := harness(t, spy, nil)
	lat2 := d.procTime(2)
	enqueue(t, p, d, 0, lat2-time.Millisecond, 1) // misses by 1ms
	enqueue(t, p, d, 0, lat2+time.Millisecond, 1) // makes it by 1ms
	st := d.Step(0)
	if len(st.Batch.Queries) != 2 || st.Batch.Done != lat2 {
		t.Fatalf("want one two-query batch done at %v: %+v", lat2, st)
	}
	b, ok := d.Finish(st.Batch.Done)
	if !ok {
		t.Fatal("batch lost")
	}
	got := []Status{p.Complete(st.Batch.Done, b.Queries[0], b).Status, p.Complete(st.Batch.Done, b.Queries[1], b).Status}
	if got[0] != Late || got[1] != Served {
		t.Fatalf("statuses %v, want [late served]", got)
	}
	if spy.completed != 2 || spy.violations != 1 {
		t.Fatalf("policy observed %d completed / %d violations, want 2 / 1", spy.completed, spy.violations)
	}
	if sum := p.Collector.Summarize(-1); sum.Served != 1 || sum.Late != 1 {
		t.Fatalf("collector recorded %d served / %d late, want 1 / 1", sum.Served, sum.Late)
	}
}

// TestStateCountsTheRunningBatch pins the tsdb snapshot's meaning: the queue
// depth includes the in-flight batch and the busy time the elapsed part of
// it, so utilisation and queue series read the same in both engines.
func TestStateCountsTheRunningBatch(t *testing.T) {
	p, d := harness(t, batching.NewStatic(2), nil)
	slo := p.slos[0]
	enqueue(t, p, d, 0, 10*slo, 3)
	st := d.Step(0)
	if len(st.Batch.Queries) != 2 {
		t.Fatalf("want a two-query batch: %+v", st)
	}
	half := st.Batch.Done / 2
	state := d.State(half)
	if state.QueueDepth != 3 {
		t.Fatalf("queue depth %d mid-batch, want 3 (1 queued + 2 in flight)", state.QueueDepth)
	}
	if state.BusyTime != half || state.LastBatch != 2 || !state.Up {
		t.Fatalf("mid-batch state %+v, want busy %v, last batch 2, up", state, half)
	}
	if _, ok := d.Finish(st.Batch.Done); !ok {
		t.Fatal("batch lost")
	}
	if state = d.State(st.Batch.Done + time.Second); state.BusyTime != st.Batch.Done || state.QueueDepth != 1 {
		t.Fatalf("idle state %+v, want busy %v and depth 1", state, st.Batch.Done)
	}
}

// TestFailStrandsQueueAndBatch: a failure hands back the queue and the
// in-flight batch separately, keeps the partial execution in the busy
// account, and makes the lost batch's Finish report false.
func TestFailStrandsQueueAndBatch(t *testing.T) {
	p, d := harness(t, batching.NewStatic(2), nil)
	enqueue(t, p, d, 0, time.Minute, 3)
	st := d.Step(0)
	at := st.Batch.Done / 2
	queued, inflight := d.Fail(at)
	if len(queued) != 1 || len(inflight) != 2 {
		t.Fatalf("stranded %d queued / %d in flight, want 1 / 2", len(queued), len(inflight))
	}
	if _, ok := d.Finish(st.Batch.Done); ok {
		t.Fatal("Finish completed a batch the failure had taken")
	}
	if state := d.State(st.Batch.Done); state.Up || state.BusyTime != at || state.QueueDepth != 0 {
		t.Fatalf("failed device state %+v, want down, busy %v, empty", state, at)
	}
	if q := p.Arrive(at, 0); d.Enqueue(at, q) {
		t.Fatal("down device accepted a query")
	}
	d.Recover(nil, at)
	if ready, _ := d.View(at); !ready {
		t.Fatal("recovered device not ready")
	}
}

// TestRequeueBudget pins the requeue decision: retry while the budget and
// the deadline allow, drop with the matching cause otherwise.
func TestRequeueBudget(t *testing.T) {
	tracer := telemetry.NewTracer(64)
	p, _ := harness(t, batching.NewAccScale(), func(c *Config) {
		c.MaxRetries = 2
		c.Tracer = tracer
	})
	q := p.Arrive(0, 0)
	q.Deadline = time.Second
	for want := 1; want <= 2; want++ {
		if _, retry := p.Requeue(0, &q, telemetry.CauseDeviceFailure); !retry || q.Retries != want {
			t.Fatalf("requeue %d: retry=%v retries=%d", want, retry, q.Retries)
		}
	}
	if r, retry := p.Requeue(0, &q, telemetry.CauseDeviceFailure); retry || r.Status != Dropped {
		t.Fatalf("third strand retried (budget 2): %+v", r)
	}
	late := p.Arrive(0, 0)
	if _, retry := p.Requeue(late.Deadline, &late, telemetry.CauseStaleRoute); retry {
		t.Fatal("expired query retried")
	}
	sum := p.Collector.Summarize(-1)
	if sum.Requeued != 4 || sum.Retried != 2 || sum.Dropped != 2 {
		t.Fatalf("requeued=%d retried=%d dropped=%d, want 4/2/2", sum.Requeued, sum.Retried, sum.Dropped)
	}
	var causes []telemetry.Cause
	for _, ev := range tracer.Events() {
		if ev.Kind == telemetry.EvDropped {
			causes = append(causes, ev.Cause)
		}
	}
	if len(causes) != 2 || causes[0] != telemetry.CauseRetryBudget || causes[1] != telemetry.CauseExpired {
		t.Fatalf("drop causes %v, want [retry_budget expired]", causes)
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildMasksUnreadyDevices: the table only routes to devices whose
// view is ready, admission follows the whole plan, and a family left with
// no ready device is dropped as no_route.
func TestRebuildMasksUnreadyDevices(t *testing.T) {
	p, _ := harness(t, batching.NewAccScale(), nil)
	plan, err := p.Controller.Reallocate(0, []float64{20, 20}, "initial")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetPlan(plan, p.Controller.LastPlanSeq()); err != nil {
		t.Fatal(err)
	}
	ready := make([]bool, len(p.Devices))
	profs := make([]overload.DeviceProfile, len(p.Devices))
	for d, dev := range p.Devices {
		dev.Rehost(p.Hosted(d), 0)
		ready[d], profs[d] = dev.View(0)
	}
	p.Rebuild(0, ready, profs)
	serving := map[int]bool{}
	for i := 0; i < 200; i++ {
		d, cause := p.Route(0, p.Arrive(0, 0))
		if d < 0 {
			t.Fatalf("provisioned family dropped: %v", cause)
		}
		if p.Devices[d].hosted.Family != 0 {
			t.Fatalf("family 0 routed to device %d hosting family %d", d, p.Devices[d].hosted.Family)
		}
		serving[d] = true
	}
	for d := range ready {
		if serving[d] {
			ready[d] = false
		}
	}
	p.Rebuild(0, ready, profs)
	if d, cause := p.Route(0, p.Arrive(0, 0)); d >= 0 || cause != telemetry.CauseNoRoute {
		t.Fatalf("route to masked device %d (cause %v), want no_route", d, cause)
	}
	if !p.SetHealth(0, 1, false) || p.SetHealth(0, 1, false) || p.SetHealth(0, 99, false) {
		t.Fatal("a failure must register exactly once per healthy device")
	}
	if down := p.Down(); !down[1] || down[0] {
		t.Fatalf("down mask %v", down)
	}
	if !p.SetHealth(0, 1, true) || p.SetHealth(0, 1, true) {
		t.Fatal("a recovery must register exactly once per failed device")
	}
}

// TestStepDecisionLead pins what Config.DecisionLead moves and what it leaves
// alone. One query waits for a second until T_max_wait(2) = deadline − T(2):
// with lead L the wait's WakeAt is L earlier and the step taken there starts
// the batch, stamped with the true time; with no lead the step waits out the
// exact edge, as the simulator relies on.
func TestStepDecisionLead(t *testing.T) {
	const arrival = 10 * time.Millisecond
	for _, lead := range []time.Duration{0, 5 * time.Millisecond} {
		p, cpu := harness(t, batching.NewAccScale(), func(c *Config) { c.DecisionLead = lead })
		d := p.Devices[2] // a GPU: the CPU's SLO-capped batch is 1, which never waits
		d.setHosted(cpu.hosted, 0)
		deadline := arrival + p.slos[0]
		edge := deadline - d.procTime(2)
		enqueue(t, p, d, arrival, deadline, 1)

		st := d.Step(arrival)
		if !st.Wake || st.Loading || len(st.Batch.Queries) != 0 {
			t.Fatalf("lead %v: a lone query with slack must wait for a second: %+v", lead, st)
		}
		if st.WakeAt != edge-lead || st.WakeAt <= arrival {
			t.Fatalf("lead %v: WakeAt %v, want T_max_wait(2) − lead = %v (after now %v)", lead, st.WakeAt, edge-lead, arrival)
		}
		// A wake-up that comes early (an arrival elsewhere, a stale token)
		// waits again, for the same instant.
		early := st.WakeAt - time.Millisecond
		if again := d.Step(early); !again.Wake || again.WakeAt != st.WakeAt || again.WakeAt <= early {
			t.Fatalf("lead %v: step 1ms before WakeAt: %+v, want another wait until %v", lead, again, st.WakeAt)
		}

		now := st.WakeAt
		st = d.Step(now)
		if len(st.Batch.Queries) != 1 || st.Wake {
			t.Fatalf("lead %v: step at WakeAt %v must execute: %+v", lead, now, st)
		}
		b := st.Batch
		if b.Start != now || b.Done != now+d.procTime(1) {
			t.Fatalf("lead %v: batch runs %v–%v, want the true now %v plus T(1)", lead, b.Start, b.Done, now)
		}
		if q := b.Queries[0]; q.FormAt != now || q.ExecAt != now || q.EnqueueAt != arrival {
			t.Fatalf("lead %v: stamps enqueue %v form %v exec %v, want %v, %v, %v", lead, q.EnqueueAt, q.FormAt, q.ExecAt, arrival, now, now)
		}
	}
}

// TestStepExpiryShedIgnoresLead: the lead makes the policy act early, it does
// not make a query expire early — one that can still finish alone on the true
// clock survives the shed.
func TestStepExpiryShedIgnoresLead(t *testing.T) {
	lead := 5 * time.Millisecond
	p, d := harness(t, batching.NewStatic(1), func(c *Config) { c.DecisionLead = lead })
	enqueue(t, p, d, 0, d.procTime(1)+lead/2, 1)
	st := d.Step(0)
	if len(st.Dropped) != 0 || len(st.Batch.Queries) != 1 {
		t.Fatalf("a query with %v of true slack was not executed: %+v", lead/2, st)
	}
}
