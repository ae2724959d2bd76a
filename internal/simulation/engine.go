// Package simulation provides the discrete-event engine underneath the
// Proteus simulator: a virtual clock and an event queue with deterministic
// FIFO ordering among same-time events. The paper's evaluation (§6.1.5) is
// driven by exactly such an event-queue simulator; results from it match
// their cluster testbed within ~1%.
package simulation

import (
	"fmt"
	"time"
)

// Handle names one scheduled event so that it can be cancelled. It is a
// value: a slot in the engine's table plus the generation the slot had when
// the event was scheduled. A slot's generation moves on when its event
// leaves the queue, so a handle kept past that point names nothing, even
// after the slot is reused. The zero Handle names no event.
type Handle struct {
	slot uint32
	gen  uint32
}

// entry is one queued event. It holds no pointer, so sifting moves plain
// words and the collector never scans the queue; the callback waits in the
// slot table.
type entry struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is one row of the handle table. gen is 0 only in the zero Handle: it
// starts at 1 and skips 0 when it wraps, so a stale handle could match again
// only after 2³²−1 reuses of its slot.
type slot struct {
	fn  func() // nil once cancelled
	gen uint32
}

// arity is the heap's fan-out: a 4-ary heap is half as deep as a binary one
// and the four children of a node share one or two cache lines.
const arity = 4

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now   time.Duration
	queue []entry  // arity-ary min-heap on (at, seq)
	slots []slot   // indexed by entry.slot and Handle.slot
	free  []uint32 // slots whose event has left the queue
	seq   uint64
	fired uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past panics — it indicates a model bug. Events at equal times fire in
// scheduling order. Once the queue and the slot table have reached their
// working size, Schedule allocates nothing.
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("simulation: scheduling at %v before now %v", at, e.now))
	}
	var s uint32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = uint32(len(e.slots))
		e.slots = append(e.slots, slot{gen: 1})
	}
	e.slots[s].fn = fn
	ev := entry{at: at, seq: e.seq, slot: s}
	e.seq++

	// Sift up: move parents down into the hole until ev fits.
	e.queue = append(e.queue, ev)
	i := len(e.queue) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(e.queue[p]) {
			break
		}
		e.queue[i] = e.queue[p]
		i = p
	}
	e.queue[i] = ev
	return Handle{slot: s, gen: e.slots[s].gen}
}

// After registers fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel prevents h's event from firing. Cancelling the zero Handle, or an
// event that already fired or was already cancelled, is a no-op. The entry
// stays queued until its time comes and is then discarded.
func (e *Engine) Cancel(h Handle) {
	if int(h.slot) < len(e.slots) && e.slots[h.slot].gen == h.gen {
		e.slots[h.slot].fn = nil
	}
}

// pop removes the earliest entry, releases its slot and, unless the event
// was cancelled, advances the clock to it and runs it.
func (e *Engine) pop() {
	top := e.queue[0]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		// Sift down: move the smallest child up into the hole until last fits.
		i := 0
		for {
			c := i*arity + 1
			if c >= n {
				break
			}
			end := c + arity
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if e.queue[j].before(e.queue[m]) {
					m = j
				}
			}
			if !e.queue[m].before(last) {
				break
			}
			e.queue[i] = e.queue[m]
			i = m
		}
		e.queue[i] = last
	}

	s := &e.slots[top.slot]
	fn := s.fn
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	e.free = append(e.free, top.slot)
	if fn == nil {
		return
	}
	e.now = top.at
	e.fired++
	fn()
}

// Run fires events until the queue is exhausted.
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.pop()
	}
}

// AdvanceTo fires every event scheduled strictly before t, then moves the
// clock to t. Events at exactly t stay queued: a caller that merges an
// already-ordered stream with the queue (core's arrival cursor) handles its
// own item at t first.
func (e *Engine) AdvanceTo(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.pop()
	}
	if t > e.now {
		e.now = t
	}
}
