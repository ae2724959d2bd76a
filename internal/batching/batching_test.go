package batching

import (
	"fmt"
	"testing"
	"time"
)

// linearProc returns a latency model: fixed + perItem*batch.
func linearProc(fixed, perItem time.Duration) func(int) time.Duration {
	return func(b int) time.Duration { return fixed + time.Duration(b)*perItem }
}

func ctx(now time.Duration, queue []Query, maxBatch int, proc func(int) time.Duration) *Context {
	return &Context{Now: now, Queue: queue, MaxBatch: maxBatch, MemBatch: 1024, ProcTime: proc}
}

func q(id uint64, deadline time.Duration) Query {
	return Query{ID: id, Deadline: deadline}
}

func TestAccScaleIdleOnEmptyQueue(t *testing.T) {
	p := NewAccScale()
	d := p.Decide(ctx(0, nil, 8, linearProc(10*time.Millisecond, 5*time.Millisecond)))
	if d.Action != Idle {
		t.Fatalf("action %v", d.Action)
	}
}

func TestAccScaleWaitsWhenSafe(t *testing.T) {
	// One query, deadline at 200ms, proc(2) = 20ms → T_max_wait(2) = 180ms.
	// At now=0 it must wait until exactly 180ms.
	p := NewAccScale()
	proc := linearProc(10*time.Millisecond, 5*time.Millisecond)
	d := p.Decide(ctx(0, []Query{q(1, 200*time.Millisecond)}, 8, proc))
	if d.Action != Wait {
		t.Fatalf("action %v, want wait", d.Action)
	}
	want := 200*time.Millisecond - proc(2)
	if d.WakeAt != want {
		t.Fatalf("WakeAt %v, want %v", d.WakeAt, want)
	}
}

func TestAccScaleExecutesAtDeadline(t *testing.T) {
	// Same setup at now = T_max_wait(2): must execute the single query.
	p := NewAccScale()
	proc := linearProc(10*time.Millisecond, 5*time.Millisecond)
	wake := 200*time.Millisecond - proc(2)
	d := p.Decide(ctx(wake, []Query{q(1, 200*time.Millisecond)}, 8, proc))
	if d.Action != Execute || d.BatchSize != 1 {
		t.Fatalf("decision %+v, want execute batch 1", d)
	}
}

func TestAccScaleCase2Recursion(t *testing.T) {
	// §5 Case 2: a second query arrives before T_max_wait(2). With q=2 the
	// policy computes T_max_wait(3); if now is already past it, execute
	// with batch 2, which by construction still meets the head deadline.
	p := NewAccScale()
	proc := linearProc(10*time.Millisecond, 50*time.Millisecond)
	head := q(1, 200*time.Millisecond)
	// T_max_wait(3) = 200 - (10 + 150) = 40ms. At now=50ms with 2 queries:
	// past T_max_wait(3) → execute batch 2. Verify head still meets SLO:
	// 50 + proc(2) = 160 <= 200.
	d := p.Decide(ctx(50*time.Millisecond, []Query{head, q(2, 400*time.Millisecond)}, 8, proc))
	if d.Action != Execute || d.BatchSize != 2 {
		t.Fatalf("decision %+v, want execute batch 2", d)
	}
	if 50*time.Millisecond+proc(2) > head.Deadline {
		t.Fatal("test setup broken: head would miss SLO")
	}
	// At now=30ms (before T_max_wait(3)) it must wait until 40ms.
	d = p.Decide(ctx(30*time.Millisecond, []Query{head, q(2, 400*time.Millisecond)}, 8, proc))
	if d.Action != Wait || d.WakeAt != 40*time.Millisecond {
		t.Fatalf("decision %+v, want wait until 40ms", d)
	}
}

func TestAccScaleHeadNeverTimesOutFromWaiting(t *testing.T) {
	// Invariant of §5: whenever AccScale decides Execute with batch q as a
	// result of its own waiting (i.e. it was not already doomed on entry),
	// now + proc(q) <= head deadline.
	p := NewAccScale()
	proc := linearProc(5*time.Millisecond, 3*time.Millisecond)
	for n := 1; n <= 20; n++ {
		queue := make([]Query, n)
		for i := range queue {
			queue[i] = q(uint64(i), 100*time.Millisecond+time.Duration(i)*10*time.Millisecond)
		}
		c := ctx(0, queue, 32, proc)
		d := p.Decide(c)
		switch d.Action {
		case Execute:
			if c.Now+proc(d.BatchSize) > queue[0].Deadline {
				t.Fatalf("n=%d: head misses SLO", n)
			}
		case Wait:
			// Waiting until WakeAt then executing batch n must still meet
			// the head deadline.
			if d.WakeAt+proc(n) > queue[0].Deadline {
				t.Fatalf("n=%d: wake too late", n)
			}
		}
	}
}

func TestAccScaleFullBatchExecutesImmediately(t *testing.T) {
	p := NewAccScale()
	proc := linearProc(time.Millisecond, time.Millisecond)
	queue := make([]Query, 10)
	for i := range queue {
		queue[i] = q(uint64(i), time.Second)
	}
	d := p.Decide(ctx(0, queue, 4, proc))
	if d.Action != Execute || d.BatchSize != 4 {
		t.Fatalf("decision %+v, want execute batch 4 (MaxBatch)", d)
	}
}

func TestAccScaleNonWorkConserving(t *testing.T) {
	// The defining behaviour: with a relaxed deadline and a non-empty
	// queue, the device is deliberately left idle.
	p := NewAccScale()
	proc := linearProc(time.Millisecond, time.Millisecond)
	d := p.Decide(ctx(0, []Query{q(1, time.Second)}, 8, proc))
	if d.Action != Wait {
		t.Fatalf("decision %+v: AccScale must idle while waiting is safe", d)
	}
}

func TestNexusWorkConserving(t *testing.T) {
	// Nexus never waits: any non-empty queue with feasible queries executes
	// immediately.
	p := NewNexus()
	proc := linearProc(time.Millisecond, time.Millisecond)
	d := p.Decide(ctx(0, []Query{q(1, time.Second)}, 8, proc))
	if d.Action != Execute || d.BatchSize != 1 {
		t.Fatalf("decision %+v, want immediate execute", d)
	}
}

func TestNexusPlannedBatchTracksRate(t *testing.T) {
	// The planned batch is the smallest whose throughput covers the rate:
	// proc(b) = 10 + b ms, so b/proc(b) is 90.9 QPS at b=1, ~166 at b=2,
	// 230 at b=3...
	proc := linearProc(10*time.Millisecond, time.Millisecond)
	queue := make([]Query, 20)
	for i := range queue {
		queue[i] = q(uint64(i), time.Second)
	}
	p := NewNexus()
	c := ctx(0, queue, 16, proc)
	c.ArrivalRate = 50
	if d := p.Decide(c); d.BatchSize != 1 {
		t.Fatalf("rate 50: batch %d, want 1", d.BatchSize)
	}
	c.ArrivalRate = 200
	if d := p.Decide(c); d.BatchSize != 3 {
		t.Fatalf("rate 200: batch %d, want 3", d.BatchSize)
	}
	// The plan caps the batch even with a long queue — the fixed-size
	// weakness the paper's Fig. 6 exploits.
	if d := p.Decide(c); d.BatchSize >= len(queue) {
		t.Fatal("planned batch must not balloon to the queue length")
	}
}

func TestNexusPlannedBatchCappedByMax(t *testing.T) {
	proc := linearProc(10*time.Millisecond, time.Millisecond)
	queue := make([]Query, 20)
	for i := range queue {
		queue[i] = q(uint64(i), time.Second)
	}
	p := NewNexus()
	c := ctx(0, queue, 4, proc)
	c.ArrivalRate = 1e9
	if d := p.Decide(c); d.BatchSize != 4 {
		t.Fatalf("batch %d, want MaxBatch 4", d.BatchSize)
	}
}

func TestNexusDropsHopelessQueries(t *testing.T) {
	p := NewNexus()
	proc := linearProc(10*time.Millisecond, 0)
	// Query 0 already expired, query 1 feasible.
	queue := []Query{q(0, 5*time.Millisecond), q(1, 100*time.Millisecond)}
	d := p.Decide(ctx(20*time.Millisecond, queue, 8, proc))
	if d.Action != Execute || d.BatchSize != 1 {
		t.Fatalf("decision %+v", d)
	}
	if len(d.Drop) != 1 || d.Drop[0] != 0 {
		t.Fatalf("drop %v, want [0]", d.Drop)
	}
}

func TestNexusDropShrinksBatchAndRescues(t *testing.T) {
	// proc(1)=20ms, proc(2)=30ms, rate sized for batch 2. With deadlines
	// 25ms and 29ms the 2-batch finishes at 30ms and both queries miss, so
	// both are dropped and the worker idles.
	p := NewNexus()
	proc := linearProc(10*time.Millisecond, 10*time.Millisecond)
	queue := []Query{q(0, 25*time.Millisecond), q(1, 29*time.Millisecond)}
	c := ctx(0, queue, 8, proc)
	c.ArrivalRate = 66 // plans batch 2 (2/0.030s = 66.7)
	d := p.Decide(c)
	if d.Action != Idle || len(d.Drop) != 2 {
		t.Fatalf("decision %+v, want idle with both dropped", d)
	}
	// A case where shrinking rescues: q0 deadline 25ms, q1 deadline 35ms.
	// The 2-batch finishes at 30ms, so q0 is dropped; the shrunken 1-batch
	// finishes at 20ms and q1 survives.
	c = ctx(0, []Query{q(0, 25*time.Millisecond), q(1, 35*time.Millisecond)}, 8, proc)
	c.ArrivalRate = 66
	d = p.Decide(c)
	if d.Action != Execute || d.BatchSize != 1 || len(d.Drop) != 1 || d.Drop[0] != 0 {
		t.Fatalf("decision %+v, want execute 1 drop [0]", d)
	}
}

func TestAIMDStartsAtOne(t *testing.T) {
	p := NewAIMD()
	proc := linearProc(time.Millisecond, time.Millisecond)
	queue := []Query{q(0, time.Second), q(1, time.Second)}
	d := p.Decide(ctx(0, queue, 8, proc))
	if d.Action != Execute || d.BatchSize != 1 {
		t.Fatalf("decision %+v, want execute 1", d)
	}
}

func TestAIMDAdditiveIncrease(t *testing.T) {
	p := NewAIMD()
	for i := 0; i < 5; i++ {
		p.Observe(4, 0)
	}
	if p.target != 6 {
		t.Fatalf("target %v, want 6", p.target)
	}
}

func TestAIMDMultiplicativeDecrease(t *testing.T) {
	p := NewAIMD()
	for i := 0; i < 9; i++ {
		p.Observe(4, 0)
	}
	if p.target != 10 {
		t.Fatalf("target %v", p.target)
	}
	p.Observe(4, 1)
	if p.target != 9 {
		t.Fatalf("target after decrease %v, want 9", p.target)
	}
}

func TestAIMDFloorAtOne(t *testing.T) {
	p := NewAIMD()
	for i := 0; i < 50; i++ {
		p.Observe(1, 1)
	}
	if p.target != 1 {
		t.Fatalf("target %v, want floored at 1", p.target)
	}
}

func TestAIMDNoIncreaseOnEmptyBatch(t *testing.T) {
	p := NewAIMD()
	p.Observe(0, 0)
	if p.target != 1 {
		t.Fatalf("target %v", p.target)
	}
}

func TestAIMDReset(t *testing.T) {
	p := NewAIMD()
	p.Observe(1, 0)
	p.Observe(1, 0)
	p.Reset()
	if p.target != 1 {
		t.Fatalf("target %v after reset", p.target)
	}
}

func TestAIMDIgnoresSLOCapButHonorsMemory(t *testing.T) {
	p := NewAIMD()
	for i := 0; i < 20; i++ {
		p.Observe(1, 0)
	}
	queue := make([]Query, 30)
	for i := range queue {
		queue[i] = q(uint64(i), time.Second)
	}
	c := ctx(0, queue, 4, linearProc(time.Millisecond, time.Millisecond))
	c.MemBatch = 6
	d := p.Decide(c)
	if d.BatchSize != 6 {
		t.Fatalf("batch %d, want memory cap 6 (not SLO cap 4)", d.BatchSize)
	}
}

func TestStatic(t *testing.T) {
	p := NewStatic(1)
	proc := linearProc(time.Millisecond, time.Millisecond)
	queue := []Query{q(0, time.Second), q(1, time.Second)}
	d := p.Decide(ctx(0, queue, 8, proc))
	if d.Action != Execute || d.BatchSize != 1 {
		t.Fatalf("decision %+v", d)
	}
	if p.Name() != "static-1" {
		t.Fatalf("name %q", p.Name())
	}
	if NewStatic(4).Decide(ctx(0, queue, 8, proc)).BatchSize != 2 {
		t.Fatal("static must clamp to queue length")
	}
}

func TestStaticPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic(0)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"accscale", "nexus", "aimd", "static-3"} {
		f, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := f()
		if name == "static-3" {
			if p.Name() != "static-3" {
				t.Fatalf("name %q", p.Name())
			}
		} else if p.Name() != name {
			t.Fatalf("name %q, want %q", p.Name(), name)
		}
	}
	// Factories must return fresh instances of stateful policies. (Stateless
	// zero-size policies may legitimately share an address.)
	f, _ := ByName("aimd")
	a := f().(*AIMD)
	b := f().(*AIMD)
	a.Observe(1, 0)
	if b.target != 1 {
		t.Fatal("aimd factory shares state between instances")
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if _, err := ByName("static-0"); err == nil {
		t.Fatal("expected error for static-0")
	}
}

// TestByNameStrictStatic is the regression test for the lenient-parsing
// bug: fmt.Sscanf("static-5xyz", "static-%d", &n) succeeds, so a typo'd
// config like "static-4,8" silently became static-4. Parsing is now strict:
// exactly "static-N" with N a canonical positive integer.
func TestByNameStrictStatic(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
		size int
	}{
		{"static-5", true, 5},
		{"static-128", true, 128},
		{"static-5xyz", false, 0},
		{"static-4,8", false, 0},
		{"static--1", false, 0},
		{"static-", false, 0},
		{"static-03", false, 0},
		{"static-+3", false, 0},
		{"static- 3", false, 0},
	}
	for _, tc := range cases {
		f, err := ByName(tc.name)
		if tc.ok {
			if err != nil {
				t.Errorf("%q: unexpected error %v", tc.name, err)
				continue
			}
			want := fmt.Sprintf("static-%d", tc.size)
			if got := f().Name(); got != want {
				t.Errorf("%q: policy name %q, want %q", tc.name, got, want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: expected error, got policy %q", tc.name, f().Name())
		}
	}
}

func TestActionString(t *testing.T) {
	if Idle.String() != "idle" || Execute.String() != "execute" || Wait.String() != "wait" {
		t.Fatal("action strings")
	}
}
