package serving

import (
	"math"
	"sync"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/dataplane"
	"proteus/internal/numeric"
	"proteus/internal/telemetry"
)

// decisionLead is how far ahead of the wall clock the workers' batching
// policies decide (dataplane.Plane.SetDecisionLead). The simulator cuts a
// batching wait on the exact T_max_wait edge; a wall-clock timer fires late by
// the scheduler's jitter, which on the edge turns into deadline misses, so
// live waits end — and the batch starts — this much before it.
const decisionLead = 5 * time.Millisecond

// liveWorker is the goroutine that owns one device: it runs the engine's
// batching steps under mu and "executes" the batches they start by sleeping
// for the profiled latency. Arrivals and model swaps wake it through notify;
// batching waits and model loads are one timer wait, interruptible by both
// and by shutdown. It takes one step per event: between two steps it always
// blocks on an execution, the timer, notify or stopc.
type liveWorker struct {
	sys *Server

	// mu guards dev (every Device transition runs under it), closed and rng.
	mu     sync.Mutex
	dev    *dataplane.Device
	closed bool
	rng    *numeric.RNG

	notify chan struct{}
	stopc  chan struct{}

	// Owned by the loop goroutine: the timer behind every wait, and the
	// fates of the batch being completed.
	timer   *time.Timer
	replies []dataplane.Reply
}

func newLiveWorker(s *Server, id int, dev *dataplane.Device) *liveWorker {
	timer := time.NewTimer(time.Hour)
	timer.Stop() // waitUntil arms it
	return &liveWorker{
		sys:    s,
		dev:    dev,
		rng:    numeric.NewRNG(s.cfg.Seed ^ uint64(id+1)),
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		timer:  timer,
	}
}

func (w *liveWorker) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// rehost switches the worker to ref unless it already hosts it, returning
// the queued queries that must be re-routed elsewhere.
func (w *liveWorker) rehost(ref *allocator.VariantRef, readyAt time.Duration) []dataplane.Query {
	w.mu.Lock()
	moved, changed := w.dev.Rehost(ref, readyAt)
	w.mu.Unlock()
	if changed {
		w.wake()
	}
	return moved
}

// fail kills the device, returning the queued queries for re-dispatch; an
// in-flight batch is re-dispatched by execute once its (wasted) sleep ends.
func (w *liveWorker) fail(now time.Duration) []dataplane.Query {
	w.mu.Lock()
	stranded, _ := w.dev.Fail(now)
	w.mu.Unlock()
	w.wake()
	return stranded
}

func (w *liveWorker) enqueue(q dataplane.Query) {
	w.mu.Lock()
	now := w.sys.now()
	if w.closed {
		w.mu.Unlock()
		w.sys.drop(now, q, telemetry.CauseDraining)
		return
	}
	ok := w.dev.Enqueue(now, q) //lint:allow lockorder established order liveWorker.mu → Guard.mu and liveWorker.mu → Tracer.mu for every Device transition; both are leaf locks that never call back into serving
	w.mu.Unlock()
	if !ok {
		// Routed before the table caught up with the failure; bounce back.
		w.sys.requeue(now, q, telemetry.CauseStaleRoute)
		return
	}
	w.wake()
}

func (w *liveWorker) shutdown() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.stopc)
	}
	w.mu.Unlock()
}

// waitUntil blocks until the server clock reads at, a wake-up or stop. A
// time already past still goes through the timer, so every return is an event.
func (w *liveWorker) waitUntil(at time.Duration) {
	w.timer.Reset(at - w.sys.now())
	select {
	case <-w.timer.C:
		return
	case <-w.notify:
	case <-w.stopc:
	}
	if !w.timer.Stop() {
		// It fired meanwhile. A tick this misses ends the next wait early,
		// which costs one more step and nothing else.
		select {
		case <-w.timer.C:
		default:
		}
	}
}

// idleWait blocks until an arrival, a model swap, or shutdown.
func (w *liveWorker) idleWait() {
	select {
	case <-w.notify:
	case <-w.stopc:
	}
}

// loop is the worker goroutine: take a batching step, publish its drops,
// then execute the batch, wait until the wake-up, or wait for work.
func (w *liveWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	s := w.sys
	loading := false
	for {
		w.mu.Lock()
		now := s.now()
		if w.closed {
			pending := w.dev.TakeQueue()
			w.mu.Unlock()
			for _, q := range pending {
				s.drop(now, q, telemetry.CauseDraining)
			}
			return
		}
		st := w.dev.Step(now)
		w.mu.Unlock()

		for _, dr := range st.Dropped {
			s.drop(now, dr.Query, dr.Cause)
		}
		if st.Loading {
			// Every wake-up re-checks the device: a failure or shutdown
			// mid-load must not sleep the load out.
			loading = true
			w.waitUntil(st.WakeAt)
			continue
		}
		if loading {
			// The load ended: re-admit the device into the routing table.
			loading = false
			s.rebuildTable()
		}
		switch {
		case len(st.Batch.Queries) > 0:
			w.execute(st.Batch)
		case st.Wake:
			// WakeAt already leads T_max_wait by decisionLead: the step the
			// timer brings on executes.
			w.waitUntil(st.WakeAt)
		default:
			w.idleWait()
		}
	}
}

// execute simulates hardware execution: sleep until the batch's profiled
// latency (with noise) has passed since its start, then complete every query
// at one timestamp.
func (w *liveWorker) execute(b dataplane.Batch) {
	s := w.sys
	s.plane.TraceBatch(b)
	lat := b.Done - b.Start
	if s.cfg.ExecNoiseFrac > 0 {
		w.mu.Lock()
		noise := 1 + s.cfg.ExecNoiseFrac*w.rng.NormFloat64()
		w.mu.Unlock()
		lat = time.Duration(math.Max(0, float64(lat)*noise))
	}
	// The device has been running since b.Start, not since this goroutine
	// got here: sleep what is left on the server clock.
	time.Sleep(b.Start + lat - s.now())
	w.mu.Lock()
	now := s.now()
	_, ok := w.dev.Finish(now)
	w.mu.Unlock()
	if !ok {
		// The device failed mid-execution: results are lost, re-dispatch.
		for _, q := range b.Queries {
			s.requeue(now, q, telemetry.CauseMidflight)
		}
		return
	}
	// One hold of the server's mutex accounts the whole batch; the callers
	// are answered after it is released.
	w.replies = w.replies[:0]
	s.mu.Lock()
	for _, q := range b.Queries {
		w.replies = append(w.replies, s.plane.Complete(now, q, b))
	}
	s.mu.Unlock()
	for i, q := range b.Queries {
		s.reply(q, w.replies[i])
	}
}
