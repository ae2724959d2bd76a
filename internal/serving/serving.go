// Package serving is the live cluster mode of Proteus: the shared serving
// engine (internal/dataplane) driven from the wall clock with real
// concurrency. An HTTP front end plays §3's load balancers, one goroutine
// per device runs the engine's batching steps and "executes" batches by
// sleeping for the profiled latency (the model-execution substitution
// documented in DESIGN.md), and a controller goroutine re-allocates. This
// package owns goroutines, locks, timers, draining and HTTP; every serving
// decision is the engine's, hence the simulator's too (the paper's §6.2
// reports the two within ~1%; TestSimVsLive repeats that check).
package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/attrib"
	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/dataplane"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config describes a live serving cluster: the engine's one configuration,
// which dataplane.Config documents. The live server refuses the simulator's
// Elastic and fills in its own clock's defaults; dataplane.New checks the
// rest and fills in the engine's.
type Config = dataplane.Config

// liveConfig refuses what the wall clock cannot serve and fills in the live
// server's own defaults: 1 s metric bins, model-load delay, execution noise
// and a metrics registry.
func liveConfig(c Config) (Config, error) {
	if c.Elastic != nil {
		return c, errors.New("serving: Config.Elastic is the simulator's: a live server cannot provision a device")
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = time.Second
	}
	if c.ModelLoadDelay <= 0 {
		c.ModelLoadDelay = 500 * time.Millisecond
	}
	if c.ExecNoiseFrac < 0 {
		c.ExecNoiseFrac = 0
	} else if c.ExecNoiseFrac == 0 {
		c.ExecNoiseFrac = 0.02
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c, nil
}

// Outcome is a query's fate in a response.
type Outcome string

// Query outcomes.
const (
	OutcomeServed  = Outcome(dataplane.Served)
	OutcomeLate    = Outcome(dataplane.Late)
	OutcomeDropped = Outcome(dataplane.Dropped)
)

// Response is the JSON reply of the inference endpoint.
type Response struct {
	Outcome   Outcome `json:"outcome"`
	Variant   string  `json:"variant,omitempty"`
	Accuracy  float64 `json:"accuracy,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Family    string  `json:"family"`
}

// Server is the assembled live cluster.
type Server struct {
	cfg    Config
	start  time.Time
	byName map[string]int

	// mu guards the engine's routing state, demand statistics and metrics
	// collector (the Plane transitions that ask for the server's mutex). It
	// is never held while a worker's mutex is taken.
	mu    sync.Mutex
	plane *dataplane.Plane

	workers []*liveWorker

	// reallocc carries failure/recovery/burn re-plan triggers into the
	// control loop, the only goroutine that touches the controller's solver
	// and re-plan policy state after NewServer.
	reallocc chan string

	// draining refuses new queries while in-flight ones (counted by
	// inflight) finish — the graceful-shutdown half of overload protection.
	draining atomic.Bool
	inflight atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer assembles and starts the cluster: the initial allocation is
// solved synchronously (for idle demand), workers spin up, and the
// controller loop begins.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := liveConfig(cfg)
	if err != nil {
		return nil, err
	}
	plane, err := dataplane.New(cfg)
	if err != nil {
		return nil, err
	}
	// The batching policies decide decisionLead ahead of the wall clock's
	// late timers.
	plane.SetDecisionLead(decisionLead)
	s := &Server{
		cfg:    cfg,
		start:  time.Now(),
		byName: make(map[string]int),
		plane:  plane,
		// Triggers coalesce: eight pending ones already cover every kind.
		reallocc: make(chan string, 8),
		stop:     make(chan struct{}),
	}
	for q, f := range cfg.Families {
		s.byName[f.Name] = q
	}
	for d, dev := range s.plane.Devices {
		s.workers = append(s.workers, newLiveWorker(s, d, dev))
	}

	initial, err := s.plane.InitialPlan(cfg.InitialDemand)
	if err != nil {
		return nil, fmt.Errorf("serving: initial allocation: %w", err)
	}
	if err := s.applyPlan(initial, true); err != nil {
		return nil, fmt.Errorf("serving: initial allocation: %w", err)
	}

	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop(&s.wg)
	}
	s.wg.Add(1)
	go s.controlLoop()
	if cfg.TSDB != nil {
		// The tsdb recorder's cadence; a flight recorder rides it.
		s.wg.Add(1)
		go s.every(cfg.TSDB.SampleInterval(), s.sample)
	}
	if s.plane.Guard != nil {
		// The overload guard's time-based edges (escalation, deferred
		// degrades, restores) advance at a fixed 1s cadence.
		s.wg.Add(1)
		go s.every(time.Second, func() { s.plane.GuardTick(s.now()) })
	}
	if !cfg.Faults.Empty() {
		s.wg.Add(1)
		go s.faultLoop()
	}
	return s, nil
}

// Close stops the workers and the controller loop. Safe to call more than
// once (Drain ends in a Close, and callers often defer another).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		for _, w := range s.workers {
			w.shutdown()
		}
		s.wg.Wait()
	})
}

// Drain performs a graceful shutdown: new queries are refused immediately
// (Infer returns a drop), in-flight queries keep executing, and once none
// remain — or the timeout expires — the server stops. Returns true when
// every in-flight query finished within the bound.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drained := s.inflight.Load() == 0
	s.Close()
	return drained
}

// Inflight returns the number of queries currently inside Infer.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// now returns the elapsed run time (all internal timestamps are durations
// since server start, matching the simulator's time base).
func (s *Server) now() time.Duration { return time.Since(s.start) }

// controlLoop owns every re-plan after NewServer and schedules what the
// controller's re-plan policy (controlplane.Controller.Decide, the
// simulator's too) makes of each trigger: the control period's ticker, the
// trigger channel, and a timer for the policy's one pending retry.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.plane.Controller.Period)
	defer ticker.Stop()
	// The pending retry's timer, or nil. One pending at Close needs no Stop:
	// it fires, unread, within a cooldown.
	var retry <-chan time.Time
	ctl := s.plane.Controller
	for {
		trigger := "periodic"
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-retry:
			retry = nil
			s.replan(ctl.Retry())
			continue
		case trigger = <-s.reallocc:
		}
		now := s.now()
		switch act, at := ctl.Decide(now, trigger); act {
		case controlplane.ReplanNow:
			s.replan(trigger, trigger == "failure")
		case controlplane.ArmRetry:
			retry = time.After(at - now)
		}
	}
}

// every runs fn at the given cadence until the server stops.
func (s *Server) every(interval time.Duration, fn func()) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			fn()
		}
	}
}

// sample is the engine's observability tick on the wall clock.
func (s *Server) sample() {
	now := s.now()
	states := make([]tsdb.DeviceState, len(s.workers))
	for d, w := range s.workers {
		w.mu.Lock()
		states[d] = w.dev.State(now)
		w.mu.Unlock()
	}
	s.plane.Sample(now, states)
}

// requestRealloc asks the control loop for a triggered re-allocation. A full
// channel means one is already queued; the trigger coalesces into it.
func (s *Server) requestRealloc(trigger string) {
	select {
	case s.reallocc <- trigger:
	default:
	}
}

// replan runs one re-plan on the control loop goroutine — the solve outside
// s.mu — and installs its plan.
func (s *Server) replan(trigger string, failure bool) {
	s.mu.Lock()
	r := s.plane.Replan(s.now(), trigger, failure)
	s.mu.Unlock()
	if err := s.plane.Solve(&r); err != nil || r.Plan.Allocation == nil || s.applyPlan(r, false) != nil {
		return // keep serving on the old plan
	}
}

// applyPlan installs a solved plan on the live workers.
func (s *Server) applyPlan(r dataplane.Replan, initial bool) error {
	now := s.now()
	s.mu.Lock()
	err := s.plane.SetPlan(now, r)
	down := s.plane.Down()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	readyAt := now + s.cfg.ModelLoadDelay
	if initial {
		readyAt = 0
	}
	var rerouted []dataplane.Query
	for d, w := range s.workers {
		if down[d] {
			// Failed devices host nothing; recovery reloads from the
			// then-current plan.
			continue
		}
		rerouted = append(rerouted, w.rehost(r.Plan.Hosted[d], readyAt)...)
	}
	s.rebuildTable()
	for _, q := range rerouted {
		s.dispatch(now, q)
	}
	return nil
}

// rebuildTable rebuilds the routing table from the plan in force and the
// workers' hosting, read before s.mu is taken: it must not nest around w.mu.
func (s *Server) rebuildTable() {
	now := s.now()
	ready := make([]bool, len(s.workers))
	profs := make([]overload.DeviceProfile, len(s.workers))
	for d, w := range s.workers {
		w.mu.Lock()
		ready[d], profs[d] = w.dev.View(now)
		w.mu.Unlock()
	}
	s.mu.Lock()
	s.plane.Rebuild(now, ready, profs)
	s.mu.Unlock()
}

// Infer serves one query synchronously: routed, queued, batched, executed.
func (s *Server) Infer(family string) Response {
	f, ok := s.byName[family]
	if !ok {
		return Response{Outcome: OutcomeDropped, Family: family}
	}
	now := s.now()
	s.inflight.Add(1)
	reply := make(chan dataplane.Reply, 1)
	d := -1
	var dropped dataplane.Reply
	// One hold books the arrival and routes it or, draining, drops it.
	s.mu.Lock()
	q := s.plane.Arrive(now, f) //lint:allow lockorder established order Server.mu → Tracer.mu and Server.mu → tsdb.Recorder.mu for every accounting transition; both sinks' locks are leaves on the data path (the recorder's burn callback, Plane.onBurn, takes only leaf locks — the tracer's, the controller's audit log's, the guard's, the flight recorder's — and sends on a channel without blocking)
	q.Reply = reply
	if s.draining.Load() {
		// Graceful drain: refuse new work; in-flight batches keep executing.
		dropped = s.plane.Drop(now, q, telemetry.CauseDraining) //lint:allow lockorder established order Server.mu → Guard.mu for every routing and accounting transition (also liveWorker.mu → Guard.mu); Guard methods are leaf locks that never call back into serving
	} else {
		d, dropped = s.routeLocked(now, q)
	}
	s.mu.Unlock()
	s.hand(d, q, dropped)
	r := <-reply
	resp := Response{
		Outcome:   Outcome(r.Status),
		Family:    family,
		LatencyMS: float64(r.Latency) / float64(time.Millisecond),
	}
	if r.Hosted != nil {
		resp.Variant = r.Hosted.Variant.ID()
		resp.Accuracy = r.Hosted.Variant.Accuracy
	}
	return resp
}

// dispatch routes q and hands it to the picked worker, or drops it.
func (s *Server) dispatch(now time.Duration, q dataplane.Query) {
	s.mu.Lock()
	d, dropped := s.routeLocked(now, q)
	s.mu.Unlock()
	s.hand(d, q, dropped)
}

// routeLocked picks q's device under s.mu; when there is none (d < 0) it
// accounts the drop in the same hold and returns its reply.
func (s *Server) routeLocked(now time.Duration, q dataplane.Query) (d int, dropped dataplane.Reply) {
	d, cause := s.plane.Route(now, q)
	if d < 0 {
		dropped = s.plane.Drop(now, q, cause)
	}
	return d, dropped
}

// hand finishes what a routing hold decided, after s.mu is released — a
// worker's mutex is never taken under it: q goes to worker d, or its caller
// gets the drop.
func (s *Server) hand(d int, q dataplane.Query, dropped dataplane.Reply) {
	if d < 0 {
		s.reply(q, dropped)
		return
	}
	s.workers[d].enqueue(q)
}

// requeue returns a stranded query to the router unless the engine drops it.
func (s *Server) requeue(now time.Duration, q dataplane.Query, cause telemetry.Cause) {
	s.mu.Lock()
	r, retry := s.plane.Requeue(now, &q, cause)
	s.mu.Unlock()
	if !retry {
		s.reply(q, r)
		return
	}
	s.dispatch(now, q)
}

func (s *Server) drop(now time.Duration, q dataplane.Query, cause telemetry.Cause) {
	s.mu.Lock()
	r := s.plane.Drop(now, q, cause)
	s.mu.Unlock()
	s.reply(q, r)
}

// reply hands a finished query's fate to the Infer call waiting on it.
func (s *Server) reply(q dataplane.Query, r dataplane.Reply) {
	s.inflight.Add(-1)
	q.Reply <- r
}

// Summary returns the run metrics so far.
func (s *Server) Summary() metrics.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plane.Collector.Summarize(-1)
}

// Collector exposes the run's metrics collector for final-dump assembly
// (report.Build). Read it only after the server stopped — the collector is
// otherwise written under the server's lock.
func (s *Server) Collector() *metrics.Collector { return s.plane.Collector }

// Allocation returns the hosted variant per device of the current plan.
func (s *Server) Allocation() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string)
	for d := range s.workers {
		id := ""
		if ref := s.plane.Hosted(d); ref != nil {
			id = ref.Variant.ID()
		}
		out[s.cfg.Cluster.Device(d).Name] = id
	}
	return out
}

// History returns the controller's decision audit log.
func (s *Server) History() []controlplane.PlanRecord { return s.plane.Controller.History() }

// DeviceHealth is one device's entry in the /healthz report.
type DeviceHealth struct {
	Device int    `json:"device"`
	Name   string `json:"name"`
	Up     bool   `json:"up"`
}

// Health reports each device's up/down state, the healthy count, and the
// overload guard's state (per-device saturation plus any active emergency
// degradation episode) so external probes can distinguish "degraded by
// plan" — the controller chose cheaper variants — from "degraded by
// overload" — the guard masked accuracy tiers reactively.
type Health struct {
	Status  string         `json:"status"` // "ok" or "degraded"
	Up      int            `json:"up"`
	Total   int            `json:"total"`
	Devices []DeviceHealth `json:"devices"`
	// Draining marks a server refusing new queries during graceful
	// shutdown.
	Draining bool `json:"draining,omitempty"`
	// Overload is the guard's snapshot (Enabled false when the guard is
	// off); Overload.Episodes lists families under emergency degradation.
	Overload overload.State `json:"overload"`
	// Build identifies the serving binary (go version, module, VCS
	// revision), so probes and dashboards can tell which build is live.
	Build buildinfo.Info `json:"build"`
}

// Health returns the current device health mask.
func (s *Server) Health() Health {
	s.mu.Lock()
	down := s.plane.Down()
	s.mu.Unlock()
	h := Health{Status: "ok", Total: len(down), Build: buildinfo.Get()}
	h.Draining = s.draining.Load()
	h.Overload = s.plane.Guard.State()
	for d, dn := range down {
		h.Devices = append(h.Devices, DeviceHealth{
			Device: d,
			Name:   s.cfg.Cluster.Device(d).Name,
			Up:     !dn,
		})
		if !dn {
			h.Up++
		}
	}
	if h.Up < h.Total || len(h.Overload.Episodes) > 0 {
		h.Status = "degraded"
	}
	return h
}

// Handler returns the HTTP API:
//
//	POST /v1/query?family=NAME  → Response JSON
//	GET  /v1/stats              → metrics.Summary JSON
//	GET  /v1/allocation         → device → variant JSON
//	GET  /v1/families           → registered family names
//	GET  /metrics               → counters/gauges, text "name value" lines;
//	                              Prometheus text exposition (# HELP/# TYPE)
//	                              when the Accept header asks for version
//	                              0.0.4 / OpenMetrics or ?format=prometheus
//	GET  /healthz               → device health mask JSON (503 when no
//	                              device is up)
//	GET  /debug/allocations     → controller decision audit log JSON
//	GET  /debug/incidents       → flight recorder's incident bundles JSON
//	POST /debug/incident        → trigger a manual incident bundle; with
//	                              ?profile=cpu,heap also capture pprof
//	                              profiles next to the bundle (live mode,
//	                              needs an incident directory)
//	GET  /debug/query?id=N      → live SLO attribution for one query: its
//	                              latency waterfall, causal joins and blame
//	                              label JSON (404 if not in the trace)
//	GET  /debug/pprof/...       → net/http/pprof profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		family := r.URL.Query().Get("family")
		if family == "" {
			http.Error(w, "family parameter required", http.StatusBadRequest)
			return
		}
		if _, ok := s.byName[family]; !ok {
			http.Error(w, "unknown family "+family, http.StatusNotFound)
			return
		}
		writeJSON(w, s.Infer(family))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("/v1/allocation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Allocation())
	})
	mux.HandleFunc("/v1/families", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, models.FamilyNames(s.cfg.Families))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", telemetry.PrometheusContentType)
			fmt.Fprintf(w, "# HELP uptime_seconds Seconds since server start.\n# TYPE uptime_seconds gauge\nuptime_seconds %d\n",
				int64(s.now()/time.Second))
			if err := s.cfg.Telemetry.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			// The collector's log-linear latency histograms export as one
			// native Prometheus histogram family (cumulative le buckets).
			s.mu.Lock()
			err := s.plane.Collector.WritePrometheusLatency(w)
			s.mu.Unlock()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "uptime_seconds %d\n", int64(s.now()/time.Second))
		if err := s.cfg.Telemetry.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		if h.Up == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(h)
			return
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/debug/allocations", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.History())
	})
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, r *http.Request) {
		list := s.cfg.Flight.Incidents()
		if list == nil {
			list = []*flightrec.Bundle{}
		}
		writeJSON(w, list)
	})
	mux.HandleFunc("/debug/incident", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if s.cfg.Flight == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotImplemented)
			return
		}
		b := s.cfg.Flight.Trigger(s.now(), "manual", r.URL.Query().Get("detail"), -1, -1)
		if kinds := r.URL.Query().Get("profile"); kinds != "" {
			if err := s.captureProfiles(b.ID, kinds); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		writeJSON(w, b)
	})
	mux.HandleFunc("/debug/query", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Tracer == nil {
			http.Error(w, "lifecycle tracer disabled", http.StatusNotImplemented)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil || id == 0 {
			http.Error(w, "id parameter required (positive query id)", http.StatusBadRequest)
			return
		}
		rep := attrib.Analyze(attrib.Input{
			Events:       s.cfg.Tracer.Events(),
			Plans:        s.History(),
			FamilyNames:  models.FamilyNames(s.cfg.Families),
			TraceDropped: s.cfg.Tracer.Dropped(),
		})
		for i := range rep.Queries {
			if rep.Queries[i].Query == id {
				writeJSON(w, &rep.Queries[i])
				return
			}
		}
		http.Error(w, "query not in trace (or unfinished)", http.StatusNotFound)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wantsPrometheus decides the /metrics representation: the Prometheus text
// exposition format when the scraper asks for it (the standard Accept
// header carries "version=0.0.4"; OpenMetrics scrapers are close enough to
// honor too) or via ?format=prometheus, the legacy plain lines otherwise.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") || strings.Contains(accept, "openmetrics")
}

// captureProfiles writes pprof captures next to the incident log, named
// after the bundle — <id>-cpu.pprof (a 500ms sample) and/or <id>-heap.pprof. This lives in the
// serving layer, not flightrec: CPU profiling needs a wall-clock sampling
// window, and the bundle core stays byte-deterministic without it.
func (s *Server) captureProfiles(id, kinds string) error {
	dir := s.cfg.Flight.Dir()
	if dir == "" {
		return fmt.Errorf("profile capture needs an incident directory (-incident-dir)")
	}
	for _, kind := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(kind) {
		case "cpu":
			f, err := os.Create(filepath.Join(dir, id+"-cpu.pprof"))
			if err != nil {
				return err
			}
			if err := rpprof.StartCPUProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			time.Sleep(500 * time.Millisecond)
			rpprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
		case "heap":
			f, err := os.Create(filepath.Join(dir, id+"-heap.pprof"))
			if err != nil {
				return err
			}
			if err := rpprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		case "":
		default:
			return fmt.Errorf("unknown profile kind %q (want cpu, heap)", kind)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
