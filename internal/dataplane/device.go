package dataplane

import (
	"fmt"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Query is one inference request flowing through the engine.
type Query struct {
	ID       uint64
	Family   int
	Arrival  time.Duration
	Deadline time.Duration
	// Retries counts failure re-dispatches; a query is retried at most
	// Config.MaxRetries times before being dropped.
	Retries int
	// EnqueueAt is stamped at device enqueue and differenced, with Arrival
	// and the batch's Start, into per-phase durations at completion. A
	// requeue restamps it, so admission absorbs the re-route wait.
	EnqueueAt time.Duration
	// Reply is where the live server's caller waits for the query's fate;
	// nil in the simulator, and never touched by this package.
	Reply chan Reply
}

// Drop is a query a Step removed from the queue, with the reason. The driver
// accounts it through Plane.Drop.
type Drop struct {
	Query Query
	Cause telemetry.Cause
}

// Batch is one execution: the queries, what runs them, and when it started
// and (by the profiled latency) completes. Queries is the device's scratch:
// the batch Finish returns (or Fail hands back) is valid until that device's
// next Step, which reuses the slice for the next batch.
type Batch struct {
	ID      int
	Device  int
	Queries []Query
	Hosted  *allocator.VariantRef
	Start   time.Duration
	Done    time.Duration
}

// Step is what one batching step decided. At most one of Batch and Wake is
// set; neither means the device idles until its next enqueue.
type Step struct {
	// Dropped must be accounted (in order) before the batch is published. It
	// is the device's scratch: valid until that device's next Step.
	Dropped []Drop
	// Batch, when it has queries, is now in flight: publish it with
	// Plane.TraceBatch and call Finish when it completes. Its Queries are the
	// device's scratch too (see Batch).
	Batch Batch
	// Wake asks for another Step at WakeAt; Loading marks WakeAt as the end
	// of the hosted model's load rather than a batching wait.
	Wake    bool
	Loading bool
	WakeAt  time.Duration
}

// maxProfiledBatch bounds the batch range whose latencies a device keeps
// for its hosted model; larger batches go to the analytical model each time.
const maxProfiledBatch = 64

// Device is one device's serving state: hosted variant, queue, in-flight
// batch and batching policy. It is passive — every transition takes the
// current time and returns what the driver must do next — and it is not
// safe for concurrent use: the live server calls it under the owning
// worker's lock, the simulator from engine callbacks.
type Device struct {
	p      *Plane // only its immutable and self-synchronised parts
	dev    cluster.Device
	policy batching.Policy

	hosted   *allocator.VariantRef
	maxBatch int // SLO- and memory-capped batch for the hosted variant
	memBatch int // memory-only cap
	// lat[b-1] is the hosted variant's latency at batch size b once it has
	// been asked for (0 before): the batching step and the overload guard
	// read latencies on their hot paths, so each is computed once per load.
	lat          [maxProfiledBatch]time.Duration
	loadingUntil time.Duration
	down         bool
	queue        []Query
	// Step's scratch, reused so steady-state steps do not allocate: the drops
	// it returns, the policy's context and the in-flight batch's queries.
	// ctx.Queue is the policy's view of queue, kept in step with it by every
	// transition that adds or removes queued queries.
	dropped []Drop
	ctx     batching.Context
	batch   []Query

	// The in-flight batch. busyAccum is the total completed execution time;
	// with inflight.Start it yields the tsdb utilization series.
	busy      bool
	inflight  Batch
	busyAccum time.Duration
	lastBatch int
	loads     int

	// Arrival-rate estimation for rate-planned batching policies (Nexus):
	// per-second counts folded into an EWMA.
	rateEWMA   float64
	rateBucket int64 // second index of the open bucket
	rateCount  int

	books books
}

// books is one device's account for Plane.CheckConservation: every query
// Enqueue accepted leaves exactly once — completed in a batch Finish
// completed, dropped by a Step, or handed back by TakeQueue or Fail.
type books struct {
	accepted, completed, dropped, handedBack int
}

// checkBooks reports an error naming the device when its queries do not
// balance or some are still queued or in flight.
func (d *Device) checkBooks() error {
	b := d.books
	if b.accepted != b.completed+b.dropped+b.handedBack || len(d.queue) > 0 || d.busy {
		return fmt.Errorf("conservation violated on device %s: %d accepted, %d completed + %d dropped + %d handed back, %d queued, %d in flight",
			d.dev.Name, b.accepted, b.completed, b.dropped, b.handedBack, len(d.queue), len(d.inflight.Queries))
	}
	return nil
}

// hostedID returns the hosted variant's ID ("" when idle).
func (d *Device) hostedID() string {
	if d.hosted == nil {
		return ""
	}
	return d.hosted.Variant.ID()
}

// LoadingUntil returns when the hosted model finishes loading.
func (d *Device) LoadingUntil() time.Duration { return d.loadingUntil }

// Loads returns how many model loads the device has performed.
func (d *Device) Loads() int { return d.loads }

// noteArrival folds one arrival into the rate estimate.
func (d *Device) noteArrival(now time.Duration) {
	sec := int64(now / time.Second)
	if sec != d.rateBucket {
		// Fold closed buckets, decaying through empty seconds.
		const alpha = 0.3
		d.rateEWMA = alpha*float64(d.rateCount) + (1-alpha)*d.rateEWMA
		for s := d.rateBucket + 1; s < sec && s-d.rateBucket < 30; s++ {
			d.rateEWMA *= 1 - alpha
		}
		d.rateBucket = sec
		d.rateCount = 0
	}
	d.rateCount++
}

// arrivalRate returns the smoothed arrival rate in QPS, biased toward the
// open bucket when it already exceeds the average (fast ramp-up).
func (d *Device) arrivalRate() float64 {
	if float64(d.rateCount) > d.rateEWMA {
		return float64(d.rateCount)
	}
	return d.rateEWMA
}

// syncDepth reports the queue depth to the overload guard (a no-op when the
// guard is off). Called after every queue mutation so the backpressure
// hysteresis and admission bound always see the true depth.
func (d *Device) syncDepth() {
	d.p.Guard.NoteDepth(d.dev.ID, len(d.queue))
}

// procTime is the batch latency of the hosted variant on this device: an
// O(1) lookup in its slice of the model profile (§3) within the profiled
// range, the analytical model beyond it.
func (d *Device) procTime(b int) time.Duration {
	if b < 1 || b > len(d.lat) {
		return profiles.Latency(d.dev.Spec, d.hosted.Variant, b)
	}
	if d.lat[b-1] == 0 {
		d.lat[b-1] = profiles.Latency(d.dev.Spec, d.hosted.Variant, b)
	}
	return d.lat[b-1]
}

// setHosted installs a (possibly nil) variant that is ready at readyAt,
// resetting batching state. The caller re-routes what TakeQueue returned.
func (d *Device) setHosted(ref *allocator.VariantRef, readyAt time.Duration) {
	d.hosted = ref
	d.policy.Reset()
	if ref == nil {
		d.maxBatch, d.memBatch = 0, 0
		return
	}
	d.maxBatch = profiles.MaxBatch(d.dev.Spec, ref.Variant, d.p.slos[ref.Family])
	d.memBatch = profiles.MaxMemoryBatch(d.dev.Spec, ref.Variant)
	d.lat = [maxProfiledBatch]time.Duration{}
	d.loadingUntil = readyAt
	d.loads++
	d.p.tc.ModelLoads.Inc()
}

// Rehost switches the device to ref unless it already hosts that variant.
// It returns the queued queries, which must be re-routed, and whether the
// hosting changed.
func (d *Device) Rehost(ref *allocator.VariantRef, readyAt time.Duration) ([]Query, bool) {
	id := ""
	if ref != nil {
		id = ref.Variant.ID()
	}
	if id == d.hostedID() {
		return nil, false
	}
	moved := d.TakeQueue()
	d.setHosted(ref, readyAt)
	return moved, true
}

// TakeQueue removes and returns all queued queries.
func (d *Device) TakeQueue() []Query {
	qs := d.queue
	d.queue = nil
	d.ctx.Queue = d.ctx.Queue[:0]
	d.books.handedBack += len(qs)
	d.syncDepth()
	return qs
}

// Enqueue admits a routed query; the driver follows up with a Step. It
// reports false when the device is down — the routing table had not caught
// up with the failure — and the query must be requeued as a stale route.
func (d *Device) Enqueue(now time.Duration, q Query) bool {
	if d.down {
		return false
	}
	d.noteArrival(now)
	// The enqueue event carries the plan and overload episode in force,
	// anchoring the attribution engine's causal joins.
	d.p.trace(now, telemetry.EvEnqueue, &q, d.dev.ID, -1, telemetry.CauseNone)
	q.EnqueueAt = now
	d.queue = append(d.queue, q)
	d.ctx.Queue = append(d.ctx.Queue, batching.Query{ID: q.ID, Arrival: q.Arrival, Deadline: q.Deadline})
	d.books.accepted++
	d.syncDepth()
	return true
}

// Fail kills the device: the hosted model is lost and the queue and the
// in-flight batch are handed back for requeueing. The partial execution
// stays in the busy-time account — the device was working until it died —
// and a later Finish for the lost batch reports false.
func (d *Device) Fail(now time.Duration) (queued, inflight []Query) {
	d.down = true
	queued = d.TakeQueue()
	if d.busy {
		d.busyAccum += now - d.inflight.Start
	}
	inflight = d.inflight.Queries
	d.books.handedBack += len(inflight)
	d.inflight = Batch{}
	d.busy = false
	d.hosted = nil
	d.maxBatch, d.memBatch = 0, 0
	d.loadingUntil = 0
	d.policy.Reset()
	return queued, inflight
}

// Recover brings the device back with an empty memory: it reloads ref (the
// current plan's hosting for it, usually nil until the next re-allocation).
func (d *Device) Recover(ref *allocator.VariantRef, readyAt time.Duration) {
	d.down = false
	d.setHosted(ref, readyAt)
}

// View snapshots what Plane.Rebuild needs of the device: whether it can
// take queries now, and its profile for the overload guard.
func (d *Device) View(now time.Duration) (ready bool, prof overload.DeviceProfile) {
	ready = !d.down && d.loadingUntil <= now
	if d.p.Guard == nil || d.down || d.hosted == nil || d.maxBatch < 1 {
		return ready, overload.DeviceProfile{Family: -1}
	}
	f := d.hosted.Family
	return ready, overload.DeviceProfile{
		Family:   f,
		Accuracy: d.hosted.Variant.Accuracy,
		MaxBatch: d.maxBatch,
		Lat1:     d.procTime(1),
		LatMax:   d.procTime(d.maxBatch),
		SLO:      d.p.slos[f],
	}
}

// State snapshots the device for the tsdb sampler. The queue depth counts
// the in-flight batch and the busy time the elapsed part of it; Plane.Sample
// fills in the overload guard's signal.
func (d *Device) State(now time.Duration) tsdb.DeviceState {
	busy := d.busyAccum
	if d.busy {
		busy += now - d.inflight.Start
	}
	return tsdb.DeviceState{
		Up:         !d.down,
		QueueDepth: len(d.queue) + len(d.inflight.Queries),
		LastBatch:  d.lastBatch,
		Variant:    d.hostedID(),
		BusyTime:   busy,
	}
}

// Step runs one batching step: shed what cannot run here, drop queries that
// can no longer meet their deadline, consult the policy, and start a batch
// or name the next wake-up. Drivers call it after every enqueue, batch
// completion, hosting change and wake-up; it is a no-op while a batch runs.
// The policy decides as of now plus the plane's decision lead
// (Plane.SetDecisionLead) and a batching wait's WakeAt is that much before
// the policy's, so a Step at WakeAt executes; the expiry shed, Batch.Start
// and the queries' stamps use now itself.
func (d *Device) Step(now time.Duration) Step {
	var st Step
	if d.busy || d.down {
		return st
	}
	d.dropped = d.dropped[:0]
	if d.hosted == nil || d.maxBatch < 1 {
		// Nothing runnable here; shed whatever was routed to us.
		st.Dropped = d.shed(telemetry.CauseNoRoute, func(int, *Query) bool { return true })
		return st
	}
	if now < d.loadingUntil {
		// Model still loading: hold the queue and try again when ready.
		st.Wake, st.Loading, st.WakeAt = true, true, d.loadingUntil
		return st
	}
	// Queries that cannot complete within their SLO any more — even executed
	// alone and immediately, the batch-1 latency would land past the
	// deadline — are dropped before the policy sees them. Executing them
	// would only waste capacity (the client has timed out regardless); they
	// count as SLO violations.
	horizon := now + d.procTime(1)
	st.Dropped = d.shed(telemetry.CauseExpired, func(_ int, q *Query) bool { return q.Deadline < horizon })
	if len(d.queue) == 0 {
		return st
	}

	// The policy alone sees the clock run ahead by the driver's lead.
	lead := d.p.lead
	ctx := &d.ctx
	ctx.Now = now + lead
	ctx.MaxBatch, ctx.MemBatch = d.maxBatch, d.memBatch
	ctx.ArrivalRate = d.arrivalRate()
	dec := d.policy.Decide(ctx)
	if len(dec.Drop) > 0 {
		d.p.tc.BatchDrops.Add(int64(len(dec.Drop)))
		next := 0 // dec.Drop lists ascending queue indices
		st.Dropped = d.shed(telemetry.CausePolicyDrop, func(i int, _ *Query) bool {
			if next < len(dec.Drop) && dec.Drop[next] == i {
				next++
				return true
			}
			return false
		})
	}
	switch dec.Action {
	case batching.Idle:
		d.p.tc.BatchIdles.Inc()
	case batching.Wait:
		d.p.tc.BatchWaits.Inc()
		st.Wake, st.WakeAt = true, dec.WakeAt-lead
		if st.WakeAt < now {
			st.WakeAt = now
		}
	case batching.Execute:
		d.p.tc.BatchExecutes.Inc()
		st.Batch = d.start(now, dec.BatchSize)
	}
	return st
}

// shed moves the queued queries doomed selects to the step's drops, with the
// given cause, and returns all drops so far. doomed sees every queued query
// once, in queue order; queries move only from the first doomed one on, so a
// shed that drops nothing only reads.
func (d *Device) shed(cause telemetry.Cause, doomed func(i int, q *Query) bool) []Drop {
	keep := 0
	for i := range d.queue {
		if doomed(i, &d.queue[i]) {
			d.dropped = append(d.dropped, Drop{d.queue[i], cause})
			continue
		}
		if keep < i {
			d.queue[keep] = d.queue[i]
			d.ctx.Queue[keep] = d.ctx.Queue[i]
		}
		keep++
	}
	if dropped := len(d.queue) - keep; dropped > 0 {
		d.books.dropped += dropped
		d.queue = d.queue[:keep]
		d.ctx.Queue = d.ctx.Queue[:keep]
	}
	d.syncDepth()
	return d.dropped
}

// start pops the first b queued queries into the in-flight batch, which
// reuses the previous batch's slice.
func (d *Device) start(now time.Duration, b int) Batch {
	if b > len(d.queue) {
		b = len(d.queue)
	}
	if b < 1 {
		return Batch{}
	}
	d.batch = append(d.batch[:0], d.queue[:b]...)
	d.queue = append(d.queue[:0], d.queue[b:]...)
	d.ctx.Queue = append(d.ctx.Queue[:0], d.ctx.Queue[b:]...)
	d.syncDepth()

	d.p.tc.Batches.Inc()
	d.p.tc.BatchQueries.Add(int64(b))
	d.busy = true
	d.lastBatch = b
	d.inflight = Batch{
		ID:      int(d.p.nextBatch.Add(1) - 1),
		Device:  d.dev.ID,
		Queries: d.batch,
		Hosted:  d.hosted,
		Start:   now,
		Done:    now + d.procTime(b),
	}
	return d.inflight
}

// Finish completes the in-flight batch at now: the one timestamp that both
// tells the policy how many queries violated their SLO and, through
// Plane.Complete, decides served versus late for each of them. It reports
// false when the batch was lost to a failure in the meantime.
func (d *Device) Finish(now time.Duration) (Batch, bool) {
	if !d.busy {
		return Batch{}, false
	}
	b := d.inflight
	d.busy = false
	d.busyAccum += now - b.Start
	d.inflight = Batch{}
	d.books.completed += len(b.Queries)
	violations := 0
	for _, q := range b.Queries {
		if now > q.Deadline {
			violations++
		}
	}
	d.policy.Observe(len(b.Queries), violations)
	return b, true
}
