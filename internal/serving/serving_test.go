package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/tsdb"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "mobilenet" || f.Name == "efficientnet" {
			fams = append(fams, f)
		}
	}
	return Config{
		Cluster:  cluster.ScaledTestbed(4),
		Families: fams,
		Allocator: allocator.NewMILP(&allocator.MILPOptions{
			TimeLimit: 300 * time.Millisecond, RelGap: 0.01,
		}),
		ControlPeriod: 2 * time.Second,
		InitialDemand: []float64{120, 250}, // efficientnet, mobilenet
		Seed:          3,
	}
}

// TestServeSingleQuery sends one query against its wall-clock SLO. With the
// suite sharing two cores a host stall turned it into a drop at 143 ms, so
// "served" alone is repeated, as in TestConcurrentLoadMostlyServed; what
// singleQuery asserts holds on every attempt.
func TestServeSingleQuery(t *testing.T) {
	const attempts = 3
	for attempt := 1; ; attempt++ {
		resp := singleQuery(t)
		if resp.Outcome == OutcomeServed {
			return
		}
		if attempt == attempts {
			t.Fatalf("attempt %d: outcome %s, want served (latency %.1fms)", attempt, resp.Outcome, resp.LatencyMS)
		}
		t.Logf("attempt %d: outcome %s, want served (latency %.1fms)", attempt, resp.Outcome, resp.LatencyMS)
	}
}

// singleQuery runs one query through a fresh server and fails the test
// unless it ended as exactly one accounted outcome, with variant and
// accuracy set when served.
func singleQuery(t *testing.T) Response {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// efficientnet's SLO (~176ms) leaves room for wall-clock jitter when
	// the test machine is loaded; mobilenet's 52ms SLO does not.
	resp := s.Infer("efficientnet")
	switch resp.Outcome {
	case OutcomeServed:
		if resp.Variant == "" || resp.Accuracy < 80 || resp.Accuracy > 100 {
			t.Fatalf("served by variant %q at accuracy %v", resp.Variant, resp.Accuracy)
		}
	case OutcomeLate, OutcomeDropped:
	default:
		t.Fatalf("unknown outcome %q", resp.Outcome)
	}
	sum := s.Summary()
	if sum.Queries != 1 {
		t.Fatalf("collector saw %d queries, want 1", sum.Queries)
	}
	if (sum.Served == 1) != (resp.Outcome == OutcomeServed) {
		t.Fatalf("collector served %d, response said %s", sum.Served, resp.Outcome)
	}
	return resp
}

func TestUnknownFamilyDropped(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if resp := s.Infer("nonexistent"); resp.Outcome != OutcomeDropped {
		t.Fatalf("outcome %s", resp.Outcome)
	}
}

// TestConcurrentLoadMostlyServed sends 200 queries 2 ms apart. The
// accounting — the collector saw every query and agrees with the responses
// on how many were served — must hold on every attempt. The served share is
// a wall-clock number: with the whole suite on two cores it dipped under 70 %
// in 5 of 30 runs of an otherwise healthy server, so only that threshold is
// repeated, as TestSimVsLive does: a host stall does not recur, a server
// that drops a third of a light load does.
func TestConcurrentLoadMostlyServed(t *testing.T) {
	const n, attempts = 200, 3
	for attempt := 1; ; attempt++ {
		served := concurrentLoad(t, n)
		if served >= n*7/10 {
			return
		}
		if attempt == attempts {
			t.Fatalf("attempt %d: only %d/%d served", attempt, served, n)
		}
		t.Logf("attempt %d: only %d/%d served", attempt, served, n)
	}
}

// concurrentLoad runs n spread-out queries through a fresh server, fails the
// test on any accounting mismatch and returns how many were served.
func concurrentLoad(t *testing.T, n int) int {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fam := "mobilenet"
			if i%3 == 0 {
				fam = "efficientnet"
			}
			outcomes[i] = s.Infer(fam).Outcome
		}()
		// Spread arrivals a little.
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	served := 0
	for _, o := range outcomes {
		if o == OutcomeServed {
			served++
		}
	}
	sum := s.Summary()
	if sum.Queries != n {
		t.Fatalf("collector saw %d queries, want %d", sum.Queries, n)
	}
	if sum.Served != served {
		t.Fatalf("collector served %d, responses said %d", sum.Served, served)
	}
	return served
}

func TestBatchingUnderBurst(t *testing.T) {
	// Fire a burst simultaneously: the worker should batch them (total time
	// far below n * proc(1)).
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 16
	var wg sync.WaitGroup
	start := time.Now()
	served := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			served[i] = s.Infer("efficientnet").Outcome == OutcomeServed
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ok := 0
	for _, v := range served {
		if v {
			ok++
		}
	}
	if ok < n/2 {
		t.Fatalf("burst: only %d/%d served", ok, n)
	}
	// Without batching, 16 sequential batch-1 executions would far exceed
	// one SLO; batched execution should finish the burst well under 2s.
	if elapsed > 2*time.Second {
		t.Fatalf("burst took %v; batching ineffective", elapsed)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/query?family=mobilenet", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Family != "mobilenet" || r.Outcome == "" {
		t.Fatalf("response %+v", r)
	}

	// Unknown family → 404.
	resp2, err := http.Post(srv.URL+"/v1/query?family=bogus", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp2.StatusCode)
	}

	// Missing family → 400.
	resp3, err := http.Post(srv.URL+"/v1/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp3.StatusCode)
	}

	// GET on query → 405.
	resp4, err := http.Get(srv.URL + "/v1/query?family=mobilenet")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp4.StatusCode)
	}

	// Stats and allocation endpoints.
	for _, path := range []string{"/v1/stats", "/v1/allocation", "/v1/families"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestAllocationEndpointShowsHostedModels(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	alloc := s.Allocation()
	if len(alloc) != 4 {
		t.Fatalf("allocation has %d devices", len(alloc))
	}
	hosted := 0
	for _, v := range alloc {
		if v != "" {
			hosted++
		}
	}
	if hosted == 0 {
		t.Fatal("no models hosted after initial allocation")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestCloseIsIdempotentForWork(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Infer("mobilenet")
	s.Close()
	// After close, workers are gone; this must not hang forever thanks to
	// the routing drop path.
	done := make(chan struct{})
	go func() {
		s.Infer("mobilenet")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Infer after Close hung")
	}
}

func TestLiveReallocationUnderLoadShift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	cfg := testConfig(t)
	cfg.ControlPeriod = time.Second
	cfg.InitialDemand = []float64{5, 5} // provisioned for almost nothing
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Allocation()

	// Sustained load well above the initial provisioning for a few control
	// periods; the background controller must re-allocate.
	stop := time.After(3500 * time.Millisecond)
	var wg sync.WaitGroup
loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Infer("mobilenet")
		}()
		time.Sleep(8 * time.Millisecond) // ~125 QPS
	}
	wg.Wait()
	after := s.Allocation()
	changed := false
	for d, v := range after {
		if before[d] != v {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("no re-allocation despite 25x load shift: before=%v after=%v", before, after)
	}
	sum := s.Summary()
	if sum.Served == 0 {
		t.Fatal("nothing served during the shift")
	}
}

// TestLiveRecorderSamplesDevices covers the wall-clock side of the shared
// tsdb sampler: the server's ticker loop must produce per-device samples
// with sane utilization, and the data path must feed the SLO monitor
// without tripping the race detector.
func TestLiveRecorderSamplesDevices(t *testing.T) {
	cfg := testConfig(t)
	rec := tsdb.NewRecorder(tsdb.Config{SampleInterval: 50 * time.Millisecond})
	cfg.TSDB = rec
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Infer("efficientnet")
	}
	deadline := time.Now().Add(3 * time.Second)
	devices := cfg.Cluster.Size()
	var samples []tsdb.Sample
	for time.Now().Before(deadline) {
		samples = rec.Samples()
		if len(samples) >= 2*devices {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if len(samples) < 2*devices {
		t.Fatalf("only %d samples after 3s, want >= %d", len(samples), 2*devices)
	}
	if len(samples)%devices != 0 {
		t.Fatalf("%d samples is not a whole number of %d-device ticks", len(samples), devices)
	}
	for _, smp := range samples {
		if smp.UtilMilli < 0 || smp.UtilMilli > 1000 {
			t.Fatalf("utilization out of range: %+v", smp)
		}
		if smp.Device < 0 || smp.Device >= devices {
			t.Fatalf("device index out of range: %+v", smp)
		}
		if !smp.Up {
			t.Fatalf("healthy device sampled as down: %+v", smp)
		}
	}
}
