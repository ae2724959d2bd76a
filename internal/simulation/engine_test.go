package simulation

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// queue is what a generated program drives: the engine or the reference.
// Schedule returns a ticket, the count of events scheduled before this one,
// so that a program names events the same way on both.
type queue interface {
	Now() time.Duration
	Schedule(at time.Duration, fn func()) int
	Cancel(ticket int)
	AdvanceTo(t time.Duration)
	Run()
}

type engineQueue struct {
	e       *Engine
	handles []Handle
}

func (q *engineQueue) Now() time.Duration        { return q.e.Now() }
func (q *engineQueue) Cancel(ticket int)         { q.e.Cancel(q.handles[ticket]) }
func (q *engineQueue) AdvanceTo(t time.Duration) { q.e.AdvanceTo(t) }
func (q *engineQueue) Run()                      { q.e.Run() }
func (q *engineQueue) Schedule(at time.Duration, fn func()) int {
	q.handles = append(q.handles, q.e.Schedule(at, fn))
	return len(q.handles) - 1
}

// refQueue is the naive reference: a slice kept stable-sorted by time. A new
// event goes behind every queued event at or before its time, so the slice
// is in (time, scheduling order) and its head is the next event to fire.
type refQueue struct {
	now     time.Duration
	pending []*refEvent
	events  []*refEvent // by ticket
}

type refEvent struct {
	at        time.Duration
	fn        func()
	cancelled bool
}

func (r *refQueue) Now() time.Duration { return r.now }
func (r *refQueue) Cancel(ticket int)  { r.events[ticket].cancelled = true }
func (r *refQueue) Schedule(at time.Duration, fn func()) int {
	if at < r.now {
		panic("reference: scheduling in the past")
	}
	ev := &refEvent{at: at, fn: fn}
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].at > at })
	r.pending = slices.Insert(r.pending, i, ev)
	r.events = append(r.events, ev)
	return len(r.events) - 1
}

// fireBefore fires the queued events with time < t in order.
func (r *refQueue) fireBefore(t time.Duration) {
	for len(r.pending) > 0 && r.pending[0].at < t {
		ev := r.pending[0]
		r.pending = r.pending[1:]
		if !ev.cancelled {
			r.now = ev.at
			ev.fn()
		}
	}
}

func (r *refQueue) Run() { r.fireBefore(math.MaxInt64) }

func (r *refQueue) AdvanceTo(t time.Duration) {
	r.fireBefore(t)
	if t > r.now {
		r.now = t
	}
}

type firing struct {
	ticket int
	at     time.Duration
}

// runProgram interprets prog on q and returns what fired, in order. The
// bytes are one stream read by the top level and by every callback as it
// fires (from one of the top level's AdvanceTo calls; by the final Run the
// stream is spent and callbacks do nothing more), so two queues that fire in
// the same order run the same program and two that do not diverge from there
// on. Delays are 0–5 ms: equal times are
// the common case. A cancel picks any ticket issued so far — pending, fired,
// cancelled, or fired with its slot since reused.
func runProgram(q queue, prog []byte) []firing {
	var log []firing
	pos, tickets := 0, 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	var act func()
	schedule := func(at time.Duration) {
		ticket := tickets
		tickets++
		if got := q.Schedule(at, func() {
			log = append(log, firing{ticket, q.Now()})
			for n := next() % 3; n > 0; n-- {
				act()
			}
		}); got != ticket {
			panic("ticket out of step")
		}
	}
	act = func() {
		if pos >= len(prog) {
			return
		}
		switch op := next() % 8; {
		case op < 4:
			schedule(q.Now() + time.Duration(next()%6)*time.Millisecond)
		case op < 6:
			if tickets > 0 {
				q.Cancel((next()<<8 | next()) % tickets)
			}
		default: // an equal-time burst
			at := q.Now() + time.Duration(next()%6)*time.Millisecond
			for n := 2 + next()%4; n > 0; n-- {
				schedule(at)
			}
		}
	}
	for pos < len(prog) {
		if next()%4 == 0 {
			q.AdvanceTo(q.Now() + time.Duration(next()%6)*time.Millisecond)
		} else {
			act()
		}
	}
	q.Run()
	return log
}

// checkAgainstReference runs prog on the engine and on the reference and
// compares the firing sequences and the final clocks.
func checkAgainstReference(t *testing.T, prog []byte) {
	t.Helper()
	eq, ref := &engineQueue{e: NewEngine()}, &refQueue{}
	got, want := runProgram(eq, prog), runProgram(ref, prog)
	if !slices.Equal(got, want) {
		t.Fatalf("program %q:\nengine    fired %v\nreference fired %v", prog, got, want)
	}
	if eq.Now() != ref.Now() {
		t.Fatalf("program %q: engine ends at %v, reference at %v", prog, eq.Now(), ref.Now())
	}
	if eq.e.Fired() != uint64(len(want)) {
		t.Fatalf("program %q: Fired() = %d, %d events fired", prog, eq.e.Fired(), len(want))
	}
	if len(eq.e.queue) != 0 {
		t.Fatalf("program %q: %d entries left after Run", prog, len(eq.e.queue))
	}
}

// TestEngineAgainstReference draws programs from a pinned generator, so that
// a failure can be replayed; FuzzEngineAgainstReference explores new ones.
func TestEngineAgainstReference(t *testing.T) {
	checkAgainstReference(t, nil) // Run on an empty queue
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 1+rng.Intn(300))
		rng.Read(prog)
		checkAgainstReference(t, prog)
	}
}

func FuzzEngineAgainstReference(f *testing.F) {
	f.Add([]byte{1, 2, 1, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkAgainstReference(t, prog)
	})
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("final time %v", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired %d", e.Fired())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.Schedule(time.Second, func() {
		fired = append(fired, e.Now())
		e.After(500*time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[1] != 1500*time.Millisecond {
		t.Fatalf("fired %v", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.Schedule(time.Second, func() { ran = true })
	e.Cancel(h)
	e.Cancel(h)
	e.Cancel(Handle{})
	e.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("fired %d", e.Fired())
	}
}

func TestCancelDuringRun(t *testing.T) {
	e := NewEngine()
	ran := false
	var later Handle
	e.Schedule(time.Second, func() { e.Cancel(later) })
	later = e.Schedule(2*time.Second, func() { ran = true })
	e.Run()
	if ran {
		t.Fatal("event cancelled mid-run still fired")
	}
}

// A handle kept past its event's firing must not cancel the event that took
// over the slot.
func TestCancelStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(time.Second, func() {})
	e.Run()
	ran := false
	fresh := e.Schedule(2*time.Second, func() { ran = true })
	if fresh.slot != stale.slot {
		t.Fatalf("slot %d not reused (got %d): the test no longer covers reuse", stale.slot, fresh.slot)
	}
	e.Cancel(stale)
	e.Run()
	if !ran {
		t.Fatal("a stale handle cancelled the event that reused its slot")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(500*time.Millisecond, func() {})
}

func TestAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, e.Now())
	}
}

func TestAdvanceToStopsBeforeItsTime(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	e.AdvanceTo(2 * time.Second)
	if !slices.Equal(fired, []int{1}) {
		t.Fatalf("fired %v: AdvanceTo(2s) fires what is strictly before 2s", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("now %v", e.Now())
	}
	e.AdvanceTo(time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("now %v: the clock went backwards", e.Now())
	}
	e.AdvanceTo(10 * time.Second)
	if len(fired) != 3 || e.Now() != 10*time.Second {
		t.Fatalf("fired %v now %v", fired, e.Now())
	}
}

// A cancelled entry ahead of t is discarded without firing whatever is
// behind it in the queue.
func TestAdvanceToSkipsCancelled(t *testing.T) {
	e := NewEngine()
	e.Cancel(e.Schedule(time.Second, func() {}))
	e.Schedule(5*time.Second, func() {})
	e.AdvanceTo(3 * time.Second)
	if e.Fired() != 0 || len(e.queue) != 1 {
		t.Fatalf("fired %d, %d queued; want 0 and 1", e.Fired(), len(e.queue))
	}
}

func TestManyEventsStress(t *testing.T) {
	e := NewEngine()
	const n = 10000
	count, prev := 0, time.Duration(-1)
	for i := 0; i < n; i++ {
		at := time.Duration((i*7919)%n) * time.Millisecond
		e.Schedule(at, func() {
			count++
			if e.Now() != at || at < prev {
				t.Fatalf("event for %v fired at %v, after one at %v", at, e.Now(), prev)
			}
			prev = at
		})
	}
	e.Run()
	if count != n {
		t.Fatalf("count %d", count)
	}
}

// Once the queue, the slot table and the free list have reached their
// working size, scheduling and firing allocate nothing.
func TestScheduleAndFireDoNotAllocate(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	const depth = 256
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, noop)
	}
	step := func() {
		e.Schedule(e.Now()+depth*time.Microsecond, noop)
		e.AdvanceTo(e.Now() + time.Microsecond)
	}
	step()
	before := e.Fired()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("%v allocations per schedule + fire", allocs)
	}
	if fired := e.Fired() - before; fired != 1001 {
		t.Fatalf("fired %d events in 1001 steps", fired)
	}
}
