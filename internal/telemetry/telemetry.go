// Package telemetry is the observability substrate of the repo: a bounded
// per-query lifecycle tracer (Chrome trace_event / JSONL export), an atomic
// counters-and-gauges registry with snapshot export, and the pre-resolved
// counter bundles the hot paths increment without any map lookups or
// allocations. Everything is nil-safe: a nil *Tracer, *Registry, *Counter or
// *Gauge turns every operation into a cheap no-op, so telemetry can default
// off with (benchmarked) sub-nanosecond overhead and be switched on per run.
//
// Timestamps are supplied by the caller — the simulator passes its virtual
// clock, the live serving layer passes wall-clock durations since server
// start — so the package itself never reads the wall clock and seeded
// simulator runs export byte-identical traces.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named set of counters and gauges. Registration takes a
// lock; the returned *Counter / *Gauge are then updated lock-free, so the
// hot path never touches the registry map. A nil *Registry hands out nil
// metrics, making every instrumented path a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Metric is one (name, value) pair of a registry snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	// Kind is "counter" or "gauge".
	Kind string `json:"kind"`
}

// Snapshot returns every metric sorted by name. Each value is an atomic
// load; the registry lock only excludes concurrent registration, so the
// snapshot is per-metric consistent (torn multi-metric invariants are
// possible under concurrent writers, exact values are not).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cnames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	gnames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	out := make([]Metric, 0, len(cnames)+len(gnames))
	for _, name := range cnames {
		out = append(out, Metric{Name: name, Value: r.counters[name].Value(), Kind: "counter"})
	}
	for _, name := range gnames {
		out = append(out, Metric{Name: name, Value: r.gauges[name].Value(), Kind: "gauge"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText writes the snapshot as sorted "name value" lines — the
// /metrics wire format.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusContentType is the content type of the Prometheus text
// exposition format (version 0.0.4) emitted by WritePrometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// standardHelp documents the canonical metric names registered by the
// counter bundles below; WritePrometheus emits them as # HELP lines.
var standardHelp = map[string]string{
	"queries_arrived_total":       "Queries that arrived at the load balancer.",
	"queries_served_total":        "Queries completed within their SLO.",
	"queries_late_total":          "Queries completed after their deadline.",
	"queries_dropped_total":       "Queries dropped (shed, expired, or out of retries).",
	"queries_requeued_total":      "Queries stranded by a device failure and returned to the router.",
	"queries_retried_total":       "Stranded queries re-dispatched to a surviving replica.",
	"batches_executed_total":      "Batches executed across all devices.",
	"batch_queries_total":         "Queries executed inside batches.",
	"model_loads_total":           "Model-variant load events across devices.",
	"batching_execute_total":      "Batching-policy decisions to execute now.",
	"batching_wait_total":         "Batching-policy decisions to wait for a larger batch.",
	"batching_idle_total":         "Batching-policy decisions with nothing to do.",
	"batching_drop_total":         "Queries dropped by batching-policy decision.",
	"devices_up":                  "Devices currently healthy.",
	"plan_demand_scale_milli":     "Demand scale of the live plan, in thousandths.",
	"router_picks_total":          "Queries routed to a device.",
	"router_shed_total":           "Queries the routing table refused.",
	"overload_admitted_total":     "Queries that passed deadline admission control.",
	"overload_rejected_total":     "Queries shed on arrival as provably late.",
	"overload_backpressure_total": "High-water-mark backpressure engagements.",
	"overload_degraded_total":     "Emergency accuracy degradations opened.",
	"overload_escalated_total":    "Emergency degradations escalated one tier.",
	"overload_restored_total":     "Planned routings restored after degradation.",
	"reallocations_total":         "Successfully produced allocation plans.",
	"realloc_fallback_total":      "Plans produced by the fallback allocator.",
	"realloc_carry_forward_total": "Last-resort projections of the previous plan.",
	"realloc_failed_total":        "Re-allocation attempts where every stage errored.",
	"trace_dropped_total":         "Trace events evicted by ring-buffer wrap (explanations may be incomplete).",
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): a # HELP line where help text is known, a # TYPE
// line, then the sample. Metric names are already exposition-safe
// ([a-z_]+); values are untyped integers. Serve it with
// PrometheusContentType so standard scrapers parse it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.Snapshot() {
		if h := standardHelp[m.Name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.Name, m.Kind, m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// SystemCounters bundles the counters and gauges every serving engine
// (simulator and live cluster) increments, pre-resolved so the hot path is
// a single atomic add per event. Built from a nil registry, every field is
// nil and every update a no-op.
type SystemCounters struct {
	// Data path.
	Arrivals     *Counter
	Served       *Counter
	Late         *Counter
	Dropped      *Counter
	Requeued     *Counter
	Retried      *Counter
	Batches      *Counter
	BatchQueries *Counter
	ModelLoads   *Counter
	// Batching-policy decisions (one per Policy.Decide call).
	BatchExecutes *Counter
	BatchWaits    *Counter
	BatchIdles    *Counter
	BatchDrops    *Counter
	// Fleet state.
	DevicesUp        *Gauge
	DemandScaleMilli *Gauge // DemandScale of the live plan, in thousandths
}

// NewSystemCounters resolves the standard counter set from the registry
// (all nil when the registry is nil).
func NewSystemCounters(r *Registry) SystemCounters {
	if r == nil {
		return SystemCounters{}
	}
	return SystemCounters{
		Arrivals:         r.Counter("queries_arrived_total"),
		Served:           r.Counter("queries_served_total"),
		Late:             r.Counter("queries_late_total"),
		Dropped:          r.Counter("queries_dropped_total"),
		Requeued:         r.Counter("queries_requeued_total"),
		Retried:          r.Counter("queries_retried_total"),
		Batches:          r.Counter("batches_executed_total"),
		BatchQueries:     r.Counter("batch_queries_total"),
		ModelLoads:       r.Counter("model_loads_total"),
		BatchExecutes:    r.Counter("batching_execute_total"),
		BatchWaits:       r.Counter("batching_wait_total"),
		BatchIdles:       r.Counter("batching_idle_total"),
		BatchDrops:       r.Counter("batching_drop_total"),
		DevicesUp:        r.Gauge("devices_up"),
		DemandScaleMilli: r.Gauge("plan_demand_scale_milli"),
	}
}

// RouterCounters instrument the routing table's pick path.
type RouterCounters struct {
	// Picks counts queries routed to a device.
	Picks *Counter
	// Shed counts queries the table refused (no serving device, or shed by
	// admission control).
	Shed *Counter
}

// NewRouterCounters resolves the router counter set from the registry.
func NewRouterCounters(r *Registry) RouterCounters {
	if r == nil {
		return RouterCounters{}
	}
	return RouterCounters{
		Picks: r.Counter("router_picks_total"),
		Shed:  r.Counter("router_shed_total"),
	}
}

// OverloadCounters instrument the overload guard: admission decisions,
// backpressure engagements and the emergency-degradation ladder.
type OverloadCounters struct {
	// Admitted counts queries that passed deadline admission control;
	// Rejected counts queries shed on arrival because they provably could
	// not meet their deadline given the picked device's backlog.
	Admitted *Counter
	Rejected *Counter
	// Backpressured counts high-water-mark engagements (a device's mailbox
	// filling past the bound and leaving the routing set).
	Backpressured *Counter
	// Degraded / Escalated / Restored count emergency accuracy-degradation
	// transitions.
	Degraded  *Counter
	Escalated *Counter
	Restored  *Counter
}

// NewOverloadCounters resolves the overload counter set from the registry
// (all nil when the registry is nil).
func NewOverloadCounters(r *Registry) OverloadCounters {
	if r == nil {
		return OverloadCounters{}
	}
	return OverloadCounters{
		Admitted:      r.Counter("overload_admitted_total"),
		Rejected:      r.Counter("overload_rejected_total"),
		Backpressured: r.Counter("overload_backpressure_total"),
		Degraded:      r.Counter("overload_degraded_total"),
		Escalated:     r.Counter("overload_escalated_total"),
		Restored:      r.Counter("overload_restored_total"),
	}
}

// ControlCounters instrument the control plane's re-allocation path.
type ControlCounters struct {
	// Reallocations counts successfully produced plans.
	Reallocations *Counter
	// FallbackPlans counts plans produced by the fallback allocator after a
	// primary error; CarryForwardPlans counts last-resort projections of the
	// previous plan; FailedSolves counts attempts where all stages errored.
	FallbackPlans     *Counter
	CarryForwardPlans *Counter
	FailedSolves      *Counter
}

// NewControlCounters resolves the control-plane counter set.
func NewControlCounters(r *Registry) ControlCounters {
	if r == nil {
		return ControlCounters{}
	}
	return ControlCounters{
		Reallocations:     r.Counter("reallocations_total"),
		FallbackPlans:     r.Counter("realloc_fallback_total"),
		CarryForwardPlans: r.Counter("realloc_carry_forward_total"),
		FailedSolves:      r.Counter("realloc_failed_total"),
	}
}
