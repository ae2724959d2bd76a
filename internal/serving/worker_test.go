package serving

import (
	"testing"
	"time"

	"proteus/internal/telemetry"
)

// waitingWorker polls until some worker holds a queued query that is not yet
// executing — it sits in a batching wait — and returns that worker's index.
func waitingWorker(t *testing.T, s *Server) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for d, w := range s.workers {
			w.mu.Lock()
			state := w.dev.State(s.now())
			w.mu.Unlock()
			if state.QueueDepth > 0 && state.BusyTime == 0 {
				return d
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no worker ever held a waiting query")
	return -1
}

// TestNoBusyWaitOnBatchingWaits sends queries one at a time, so each sits
// alone in its device's queue until T_max_wait(2) passes. An event-driven
// worker decides "wait" once per query and is next woken to execute; a worker
// that polls inside a margin before the edge decides "wait" hundreds of
// times. The bound is on a count, not a time, so it holds under -race.
func TestNoBusyWaitOnBatchingWaits(t *testing.T) {
	cfg := testConfig(t)
	cfg.Telemetry = telemetry.NewRegistry()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if resp := s.Infer("mobilenet"); resp.Outcome == "" {
			t.Fatalf("query %d got no outcome", i)
		}
	}
	waits := cfg.Telemetry.Counter("batching_wait_total").Value()
	if waits < n/2 {
		t.Fatalf("%d batching waits for %d lone queries: the workload did not wait, so the test shows nothing", waits, n)
	}
	if waits > 3*n {
		t.Fatalf("%d batching waits for %d lone queries (%.1f each): the worker re-decides while it waits", waits, n, float64(waits)/n)
	}
}

// TestDrainFinishesBatchingWait: a drain that begins while a query sits in a
// batching wait lets the wait's timer run out and the batch execute — the
// query is answered, not dropped, and the drain sees it leave.
func TestDrainFinishesBatchingWait(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan Response, 1)
	go func() { got <- s.Infer("efficientnet") }()
	waitingWorker(t, s)
	if !s.Drain(5 * time.Second) {
		t.Fatalf("drain timed out with %d in flight", s.Inflight())
	}
	if resp := <-got; resp.Outcome == OutcomeDropped || resp.Outcome == "" {
		t.Fatalf("drain did not let the waiting query run: %+v", resp)
	}
	checkBooks(t, s)
}

// TestFaultInterruptsBatchingWait fails a device whose worker is in a
// batching wait, the two racing for the device: the waiting query is handed
// back and answered, exactly one requeue is booked, and the books balance.
func TestFaultInterruptsBatchingWait(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan Response, 1)
	go func() { got <- s.Infer("efficientnet") }()
	s.failDevice(waitingWorker(t, s))
	select {
	case resp := <-got:
		if resp.Outcome == "" {
			t.Fatal("no outcome for the stranded query")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stranded query was never answered")
	}
	if sum := s.Summary(); sum.Requeued != 1 {
		t.Fatalf("requeued %d, want the one stranded query", sum.Requeued)
	}
	checkBooks(t, s)
}
