package serving

import (
	"sync"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/tsdb"
)

// TestLiveFailureRedispatch kills a quarter of the live fleet while load is
// in flight: every Infer call must still return exactly once (served, late
// or dropped — no hangs), conservation must hold, and the failure counters
// must show the stranded queries being re-dispatched.
func TestLiveFailureRedispatch(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 600*time.Millisecond, 2500*time.Millisecond)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 300
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Spread arrivals across ~1.5s so queries straddle the failure.
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			outcomes[i] = s.Infer("efficientnet").Outcome
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Infer calls hung across the failure")
	}

	var served, late, dropped int
	for i, o := range outcomes {
		switch o {
		case OutcomeServed:
			served++
		case OutcomeLate:
			late++
		case OutcomeDropped:
			dropped++
		default:
			t.Fatalf("query %d got no outcome: %q", i, o)
		}
	}
	sum := s.Summary()
	if sum.Queries != n {
		t.Fatalf("collector saw %d arrivals, want %d", sum.Queries, n)
	}
	if sum.Served+sum.Late+sum.Dropped != sum.Queries {
		t.Fatalf("conservation violated: %d+%d+%d != %d",
			sum.Served, sum.Late, sum.Dropped, sum.Queries)
	}
	if sum.Served != served || sum.Late != late || sum.Dropped != dropped {
		t.Fatalf("collector (%d/%d/%d) disagrees with responses (%d/%d/%d)",
			sum.Served, sum.Late, sum.Dropped, served, late, dropped)
	}
	if sum.Failures != 1 {
		t.Fatalf("failures=%d, want 1 (25%% of 4 devices)", sum.Failures)
	}
	if served == 0 {
		t.Fatal("the surviving devices must keep serving")
	}
}

// TestLivePhaseConservation is the live leg of core's TestPhaseConservation:
// the worker stamps the enqueue and the batch start on the server clock, and
// the server's mutex accounts each completion, so the recorder's phase rows
// must agree with the collector as they do in the simulator. A device fails
// while queries are in flight, so some of them may be re-dispatched.
func TestLivePhaseConservation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 200*time.Millisecond, 0)
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := range 120 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 4 * time.Millisecond)
			s.Infer([]string{"efficientnet", "mobilenet"}[i%2])
		}()
	}
	wg.Wait()
	s.Close() // the collector is read after the server stops

	type key struct {
		scope string
		index int
	}
	count := map[key]map[string]uint64{}
	meanSum := map[int]int64{}
	devices := map[string]uint64{}
	for _, r := range cfg.TSDB.PhaseStats() {
		k := key{r.Scope, r.Index}
		if count[k] == nil {
			count[k] = map[string]uint64{}
		}
		count[k][r.Phase] = r.Count
		if r.Scope == "family" {
			meanSum[r.Index] += r.MeanUS
		} else {
			devices[r.Phase] += r.Count
		}
		if r.Phase == "exec" && r.MeanUS <= 0 {
			t.Errorf("%s %d: executed for %d µs on average", r.Scope, r.Index, r.MeanUS)
		}
	}
	var total uint64
	for f := range cfg.Families {
		sum := s.Collector().Summarize(f)
		done := uint64(sum.Served + sum.Late)
		total += done
		for p := range tsdb.NumPhases {
			phase := tsdb.Phase(p).String()
			if got := count[key{"family", f}][phase]; got != done {
				t.Errorf("family %d %s: %d queries, want served+late = %d", f, phase, got, done)
			}
		}
		if d := meanSum[f] - sum.MeanLatency.Microseconds(); d < -3 || d > 3 {
			t.Errorf("family %d: phase means sum to %d µs, mean latency is %v", f, meanSum[f], sum.MeanLatency)
		}
	}
	if total == 0 {
		t.Fatal("no query completed")
	}
	for p := range tsdb.NumPhases {
		if phase := tsdb.Phase(p).String(); devices[phase] != total {
			t.Errorf("device rows count %d %s phases, want %d", devices[phase], phase, total)
		}
	}
}

// TestLiveRecoveryRestoresDevice lets the failed device come back and checks
// the recovery is recorded and serving continues afterwards.
func TestLiveRecoveryRestoresDevice(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 200*time.Millisecond, 700*time.Millisecond)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.After(10 * time.Second)
	for {
		if sum := s.Summary(); sum.Failures == 1 && sum.Recoveries == 1 {
			break
		}
		select {
		case <-deadline:
			sum := s.Summary()
			t.Fatalf("failure/recovery not observed: failures=%d recoveries=%d",
				sum.Failures, sum.Recoveries)
		case <-time.After(50 * time.Millisecond):
		}
	}
	if resp := s.Infer("efficientnet"); resp.Outcome == "" {
		t.Fatal("no response after recovery")
	}
}

// TestFailuresInOneCooldownReplanOnce fails two devices inside the cooldown
// of the initial plan. Both triggers ride the policy's one pending retry,
// so the control loop's retry timer brings exactly one failure-triggered
// plan at the cooldown's end, before the first periodic tick; a retry per
// trigger re-planned a second time one cooldown later.
func TestFailuresInOneCooldownReplanOnce(t *testing.T) {
	cfg := testConfig(t)
	cfg.ControlPeriod = 3 * time.Second // cooldown 1 s
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 0, FailAt: 300 * time.Millisecond},
		{Device: 1, FailAt: 400 * time.Millisecond},
	}}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(cfg.ControlPeriod + 500*time.Millisecond)
	var at []time.Duration
	for _, r := range s.History() {
		if r.Trigger == "failure" && r.At < cfg.ControlPeriod {
			at = append(at, r.At)
		}
	}
	if len(at) != 1 {
		t.Fatalf("failure-triggered plans before the first periodic tick at %v, want exactly one", at)
	}
	if cooldown := cfg.ControlPeriod / 3; at[0] < cooldown {
		t.Fatalf("failure re-plan at %v, inside the initial plan's cooldown (%v)", at[0], cooldown)
	}
}

// TestLiveFaultConfigValidation pins the config-path validation.
func TestLiveFaultConfigValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 42, FailAt: time.Second},
	}}
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("out-of-range fault device must fail config validation")
	}
}
