package dataplane

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/telemetry"
)

// refDevice is the batching step written the obvious way, the oracle for
// Device's incremental bookkeeping: every step rebuilds the policy's context
// from the queue, sheds by compacting the queue through the predicate, and
// copies each batch into a fresh slice. It shares the device's hosting,
// policy, rate and latency state and overrides every transition that touches
// the queue; Finish and Recover are the device's own.
type refDevice struct{ *Device }

func (r refDevice) Enqueue(now time.Duration, q Query) bool {
	if r.down {
		return false
	}
	r.noteArrival(now)
	q.EnqueueAt = now
	r.queue = append(r.queue, q)
	return true
}

func (r refDevice) TakeQueue() []Query {
	qs := r.queue
	r.queue = nil
	return qs
}

func (r refDevice) Rehost(ref *allocator.VariantRef, readyAt time.Duration) ([]Query, bool) {
	id := ""
	if ref != nil {
		id = ref.Variant.ID()
	}
	if id == r.hostedID() {
		return nil, false
	}
	moved := r.TakeQueue()
	r.setHosted(ref, readyAt)
	return moved, true
}

func (r refDevice) Fail(now time.Duration) (queued, inflight []Query) {
	r.down = true
	queued = r.TakeQueue()
	if r.busy {
		r.busyAccum += now - r.inflight.Start
	}
	inflight = r.inflight.Queries
	r.inflight = Batch{}
	r.busy = false
	r.hosted = nil
	r.maxBatch, r.memBatch = 0, 0
	r.loadingUntil = 0
	r.policy.Reset()
	return queued, inflight
}

func (r refDevice) Step(now time.Duration) Step {
	var st Step
	if r.busy || r.down {
		return st
	}
	r.dropped = r.dropped[:0]
	if r.hosted == nil || r.maxBatch < 1 {
		st.Dropped = r.shed(telemetry.CauseNoRoute, func(int, *Query) bool { return true })
		return st
	}
	if now < r.loadingUntil {
		st.Wake, st.Loading, st.WakeAt = true, true, r.loadingUntil
		return st
	}
	horizon := now + r.procTime(1)
	st.Dropped = r.shed(telemetry.CauseExpired, func(_ int, q *Query) bool { return q.Deadline < horizon })
	if len(r.queue) == 0 {
		return st
	}
	lead := r.p.lead
	ctx := &batching.Context{
		Now:         now + lead,
		MaxBatch:    r.maxBatch,
		MemBatch:    r.memBatch,
		ProcTime:    r.procTime,
		ArrivalRate: r.arrivalRate(),
	}
	for _, q := range r.queue {
		ctx.Queue = append(ctx.Queue, batching.Query{ID: q.ID, Arrival: q.Arrival, Deadline: q.Deadline})
	}
	dec := r.policy.Decide(ctx)
	if len(dec.Drop) > 0 {
		next := 0
		st.Dropped = r.shed(telemetry.CausePolicyDrop, func(i int, _ *Query) bool {
			if next < len(dec.Drop) && dec.Drop[next] == i {
				next++
				return true
			}
			return false
		})
	}
	switch dec.Action {
	case batching.Wait:
		st.Wake, st.WakeAt = true, dec.WakeAt-lead
		if st.WakeAt < now {
			st.WakeAt = now
		}
	case batching.Execute:
		st.Batch = r.start(now, dec.BatchSize)
	}
	return st
}

func (r refDevice) shed(cause telemetry.Cause, doomed func(i int, q *Query) bool) []Drop {
	keep := r.queue[:0]
	for i := range r.queue {
		if doomed(i, &r.queue[i]) {
			r.dropped = append(r.dropped, Drop{r.queue[i], cause})
			continue
		}
		keep = append(keep, r.queue[i])
	}
	r.queue = keep
	return r.dropped
}

func (r refDevice) start(now time.Duration, b int) Batch {
	if b > len(r.queue) {
		b = len(r.queue)
	}
	if b < 1 {
		return Batch{}
	}
	qs := make([]Query, b)
	copy(qs, r.queue[:b])
	r.queue = append(r.queue[:0], r.queue[b:]...)
	r.busy = true
	r.lastBatch = b
	r.inflight = Batch{
		ID:      int(r.p.nextBatch.Add(1) - 1),
		Device:  r.dev.ID,
		Queries: qs,
		Hosted:  r.hosted,
		Start:   now,
		Done:    now + r.procTime(b),
	}
	return r.inflight
}

// devicePolicies are the four batching policies the devices are compared
// under.
var devicePolicies = []string{"accscale", "nexus", "aimd", "static-4"}

// checkDeviceAgainstReference interprets prog on a Device and on the
// reference, each on its own plane with its own policy instance, and fails
// at the first transition whose results differ. The first byte picks the
// policy and whether the policy decides 5 ms ahead, as the live server's
// does. The queries arrive with deadlines out of order, as requeues produce;
// a batch's queries must be intact when Finish returns them, and a batch Fail
// hands back must stay intact until the device's next Step.
func checkDeviceAgainstReference(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) == 0 {
		return
	}
	factory, err := batching.ByName(devicePolicies[int(prog[0])%len(devicePolicies)])
	if err != nil {
		t.Fatal(err)
	}
	lead := time.Duration(int(prog[0])/len(devicePolicies)%2) * 5 * time.Millisecond
	p, _ := harness(t, factory(), nil)
	rp, _ := harness(t, factory(), nil)
	p.SetDecisionLead(lead)
	rp.SetDecisionLead(lead)
	// A GPU: the CPU's SLO-capped batch for these models is 1, which never
	// waits or batches.
	dev, ref := p.Devices[3], refDevice{rp.Devices[3]}
	fams := p.cfg.Families
	hostings := []*allocator.VariantRef{nil}
	for f, fam := range fams {
		for _, v := range fam.Variants {
			hostings = append(hostings, &allocator.VariantRef{Family: f, Variant: v})
		}
	}
	dev.setHosted(hostings[1], 0)
	ref.setHosted(hostings[1], 0)

	pos := 1
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	var (
		now      time.Duration
		id       uint64
		inflight []Query // a copy of the running batch's queries
		handed   []Query // the batch the last Fail handed back, still the device's
		handedOK []Query // what it held then
	)
	fail := func(op string, got, want any) {
		t.Helper()
		t.Fatalf("program %q, %s at %v:\ndevice    %+v\nreference %+v", prog, op, now, got, want)
	}
	same := func(op string, got, want []Query) {
		t.Helper()
		if !slices.Equal(got, want) {
			fail(op, got, want)
		}
	}
	step := func() {
		t.Helper()
		if handed != nil {
			same("batch handed back by Fail, before the next Step", handed, handedOK)
			handed = nil
		}
		got, want := dev.Step(now), ref.Step(now)
		if !slices.Equal(got.Dropped, want.Dropped) || got.Wake != want.Wake || got.Loading != want.Loading ||
			got.WakeAt != want.WakeAt || !sameBatch(got.Batch, want.Batch) {
			fail("Step", got, want)
		}
		if len(got.Batch.Queries) > 0 {
			inflight = slices.Clone(got.Batch.Queries)
		}
	}
	for pos < len(prog) {
		switch op := next() % 8; op {
		case 0, 1, 2:
			f := next() % len(fams)
			slo := p.slos[f]
			q := Query{
				ID:       id,
				Family:   f,
				Arrival:  max(0, now-time.Duration(next()%4)*time.Millisecond),
				Deadline: now + time.Duration(next()%64)*slo/16,
			}
			id++
			if got, want := dev.Enqueue(now, q), ref.Enqueue(now, q); got != want {
				fail("Enqueue", got, want)
			}
		case 3:
			step()
		case 4: // mostly a few milliseconds, now and then an idle stretch of seconds
			if b := next(); b < 240 {
				now += time.Duration(b%16) * time.Millisecond
			} else {
				now += time.Duration(b-239) * time.Second
			}
		case 5:
			if dev.busy {
				now = max(now, dev.inflight.Done)
			}
			got, gok := dev.Finish(now)
			want, wok := ref.Finish(now)
			if gok != wok || !sameBatch(got, want) {
				fail("Finish", got, want)
			}
			if gok {
				same("Finish: the batch's queries", got.Queries, inflight)
			}
			step()
		case 6:
			if dev.down {
				h := hostings[next()%len(hostings)]
				readyAt := now + time.Duration(next()%4)*10*time.Millisecond
				dev.Recover(h, readyAt)
				ref.Recover(h, readyAt)
				continue
			}
			busy := dev.busy
			gq, gi := dev.Fail(now)
			wq, wi := ref.Fail(now)
			same("Fail: queued", gq, wq)
			same("Fail: in flight", gi, wi)
			if busy {
				same("Fail: the batch's queries", gi, inflight)
				handed, handedOK = gi, inflight
			}
		case 7:
			if next()%2 == 0 {
				same("TakeQueue", dev.TakeQueue(), ref.TakeQueue())
				continue
			}
			h := hostings[next()%len(hostings)]
			readyAt := now + time.Duration(next()%4)*10*time.Millisecond
			gm, gc := dev.Rehost(h, readyAt)
			wm, wc := ref.Rehost(h, readyAt)
			if gc != wc {
				fail("Rehost", gc, wc)
			}
			same("Rehost", gm, wm)
		}
		same("queue", dev.queue, ref.queue)
		checkQueueView(t, dev)
	}
}

// sameBatch compares two batches field by field, the queries by value.
func sameBatch(a, b Batch) bool {
	return a.ID == b.ID && a.Device == b.Device && a.Hosted == b.Hosted && a.Start == b.Start &&
		a.Done == b.Done && slices.Equal(a.Queries, b.Queries)
}

// checkQueueView fails unless the policy's view of d's queue is the queue.
func checkQueueView(t *testing.T, d *Device) {
	t.Helper()
	if len(d.ctx.Queue) != len(d.queue) {
		t.Fatalf("policy view holds %d queries, queue %d", len(d.ctx.Queue), len(d.queue))
	}
	for i, q := range d.queue {
		if v := d.ctx.Queue[i]; v != (batching.Query{ID: q.ID, Arrival: q.Arrival, Deadline: q.Deadline}) {
			t.Fatalf("policy view [%d] = %+v, queue holds %+v", i, v, q)
		}
	}
}

// TestDeviceAgainstReference draws programs from a pinned generator, so that
// a failure can be replayed; FuzzDeviceAgainstReference explores new ones.
func TestDeviceAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 1+rng.Intn(400))
		rng.Read(prog)
		prog[0] = byte(i % (2 * len(devicePolicies)))
		checkDeviceAgainstReference(t, prog)
	}
}

func FuzzDeviceAgainstReference(f *testing.F) {
	for p := range 2 * len(devicePolicies) {
		f.Add([]byte{byte(p), 0, 0, 9, 60, 0, 1, 5, 40, 3, 5, 3})
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkDeviceAgainstReference(t, prog)
	})
}
