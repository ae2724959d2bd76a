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

// liveWorker is the goroutine that owns one device: it runs the engine's
// batching steps under mu and "executes" the batches they start by sleeping
// for the profiled latency. Arrivals and model swaps wake it through notify;
// batching waits and model loads are one timer sleep, interruptible by both
// and by shutdown.
type liveWorker struct {
	sys *Server

	// mu guards dev (every Device transition runs under it), closed and rng.
	mu     sync.Mutex
	dev    *dataplane.Device
	closed bool
	rng    *numeric.RNG

	notify chan struct{}
	stopc  chan struct{}
}

func newLiveWorker(s *Server, id int, dev *dataplane.Device) *liveWorker {
	return &liveWorker{
		sys:    s,
		dev:    dev,
		rng:    numeric.NewRNG(s.cfg.Seed ^ uint64(id+1)),
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
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

// sleepInterruptible sleeps for d, returning early on a wake-up or stop.
func (w *liveWorker) sleepInterruptible(d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-w.notify:
	case <-w.stopc:
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
// then execute the batch, sleep until the wake-up, or wait for work.
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
			w.sleepInterruptible(st.WakeAt - now)
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
			// The simulator can cut waits to the exact T_max_wait edge; on
			// wall clocks, scheduler jitter would turn that into misses, so
			// the live worker wakes a few milliseconds early.
			const jitterMargin = 5 * time.Millisecond
			w.sleepInterruptible(st.WakeAt - jitterMargin - now)
		default:
			w.idleWait()
		}
	}
}

// execute simulates hardware execution: sleep for the batch's profiled
// latency (with noise), then complete every query at one timestamp.
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
	time.Sleep(lat)
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
	for _, q := range b.Queries {
		s.mu.Lock()
		r := s.plane.Complete(now, q, b)
		s.mu.Unlock()
		s.reply(q, r)
	}
}
