package serving

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/flightrec"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// TestMetricsPrometheusNegotiation covers the /metrics content negotiation:
// the legacy plain format by default, the Prometheus text exposition format
// under an Accept header or ?format=prometheus.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Telemetry = telemetry.NewRegistry()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	s.Infer("efficientnet")

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// Default: legacy plain key-value lines, no comment lines.
	body, ct := get("/metrics", "")
	if strings.Contains(body, "# TYPE") {
		t.Fatalf("plain format contains prometheus comments:\n%s", body)
	}
	if !strings.Contains(body, "queries_arrived_total 1") {
		t.Fatalf("plain format missing counter:\n%s", body)
	}
	if ct != "text/plain; charset=utf-8" {
		t.Fatalf("plain content type %q", ct)
	}

	// Prometheus via Accept header (as sent by a real scraper).
	promAccept := "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5"
	body, ct = get("/metrics", promAccept)
	if ct != telemetry.PrometheusContentType {
		t.Fatalf("prometheus content type %q", ct)
	}
	for _, w := range []string{
		"# TYPE uptime_seconds gauge",
		"# HELP queries_arrived_total ",
		"# TYPE queries_arrived_total counter\nqueries_arrived_total 1\n",
		"# TYPE devices_up gauge\ndevices_up 4\n",
		"# TYPE query_latency_seconds histogram",
		`query_latency_seconds_bucket{family="efficientnet",le="+Inf"} 1`,
		`query_latency_seconds_count{family="efficientnet"} 1`,
	} {
		if !strings.Contains(body, w) {
			t.Fatalf("prometheus format missing %q:\n%s", w, body)
		}
	}

	// Prometheus via explicit query parameter.
	body, ct = get("/metrics?format=prometheus", "")
	if ct != telemetry.PrometheusContentType || !strings.Contains(body, "# TYPE queries_arrived_total counter") {
		t.Fatalf("?format=prometheus not honored: ct=%q\n%s", ct, body)
	}
}

// TestIncidentEndpoints covers the manual-trigger POST and the incident log
// GET, including the bundle file landing in the configured directory.
func TestIncidentEndpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(1 << 10)
	cfg.Flight = flightrec.New(flightrec.Config{Dir: dir})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	s.Infer("efficientnet")

	// Empty log renders as [] — not null — so clients can always range.
	resp, err := http.Get(srv.URL + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Fatalf("empty incident log = %q, want []", got)
	}

	// GET on the trigger endpoint is refused.
	resp, err = http.Get(srv.URL + "/debug/incident")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /debug/incident status %d, want 405", resp.StatusCode)
	}

	// Manual trigger captures a bundle with the supplied detail.
	resp, err = http.Post(srv.URL+"/debug/incident?detail="+url.QueryEscape("ops drill"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var b flightrec.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/incident status %d", resp.StatusCode)
	}
	if b.Reason != "manual" || b.Detail != "ops drill" || b.Seq != 1 {
		t.Fatalf("manual bundle %+v", b)
	}
	if len(b.TraceEvents) == 0 {
		t.Fatal("manual bundle captured no trace events")
	}
	if _, err := os.Stat(filepath.Join(dir, b.ID+".json")); err != nil {
		t.Fatalf("bundle file missing: %v", err)
	}

	// The log now returns the bundle.
	resp, err = http.Get(srv.URL + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	var list []flightrec.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != b.ID {
		t.Fatalf("incident log %+v", list)
	}
}

// TestIncidentEndpointDisabled asserts the POST endpoint reports 501 when
// no flight recorder is configured.
func TestIncidentEndpointDisabled(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/debug/incident", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

// TestLivePhaseDecomposition asserts completed queries feed the per-phase
// histograms in live serving.
func TestLivePhaseDecomposition(t *testing.T) {
	cfg := testConfig(t)
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.Infer("efficientnet")
	}
	stats := cfg.TSDB.PhaseStats()
	if len(stats) == 0 {
		t.Fatal("no phase stats after live completions")
	}
	famExec := false
	for _, ps := range stats {
		if ps.Scope == "family" && ps.Phase == "exec" && ps.Count > 0 && ps.MeanUS > 0 {
			famExec = true
		}
	}
	if !famExec {
		t.Fatalf("no populated family exec histogram: %+v", stats)
	}
}

// TestBurnOnDataPathDuringSampling overloads the server from many concurrent
// Infer callers while the sampling loop ticks, with the tsdb and the flight
// recorder both on and an SLO budget so small that the first violated second
// starts a burn. Ticks come every 300 ms, so the one before a second
// boundary is 100 ms (or 200 ms) old when the traffic opens the second: the
// burn is detected inside Recorder.Arrival or Violation — under Server.mu, on
// a caller's or a worker's goroutine — and the next tick turns it into an
// incident bundle. Under -race this fails if the data path hands the event
// to the sampler through unsynchronised state.
func TestBurnOnDataPathDuringSampling(t *testing.T) {
	cfg := testConfig(t)
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{
		SampleInterval: 300 * time.Millisecond,
		SLO:            tsdb.SLOConfig{Target: 1e-6, BurnRate: 1, ShortWindow: time.Second, LongWindow: 2 * time.Second},
	})
	cfg.Flight = flightrec.New(flightrec.Config{Dir: t.TempDir()})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 48; c++ {
		family := []string{"mobilenet", "efficientnet"}[c%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Infer(family)
				}
			}
		}()
	}
	burnBundle := func() bool {
		for _, b := range cfg.Flight.Incidents() {
			if b.Reason == "slo_burn" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !burnBundle() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !burnBundle() {
		t.Fatalf("no slo_burn bundle after 10s of overload; burns=%+v summary=%+v", cfg.TSDB.Burns(), s.Summary())
	}
}
