package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Record(time.Second, EvArrival, 1, 0, 0, -1)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer should be inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer JSONL: err=%v len=%d", err, buf.Len())
	}

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter should read 0")
	}
	var g *Gauge
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatalf("nil gauge should read 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Snapshot() != nil {
		t.Fatalf("nil registry should hand out nil metrics")
	}
	sc := NewSystemCounters(nil)
	sc.Arrivals.Inc()
	sc.DevicesUp.Set(3)
	if sc.Arrivals.Value() != 0 {
		t.Fatalf("system counters from nil registry should be inert")
	}
}

// TestNilReceiversAllocateNothing holds "nil is off, and off is free" as a
// property of the code rather than of the host: every data-path method on a
// nil tracer, counter or gauge returns without allocating.
func TestNilReceiversAllocateNothing(t *testing.T) {
	var (
		tr *Tracer
		c  *Counter
		g  *Gauge
	)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Tracer.Record", func() { tr.Record(time.Second, EvDone, 1, 0, 1, 2) }},
		{"Tracer.RecordCtx", func() { tr.RecordCtx(time.Second, EvDone, 1, 0, 1, 2, Ctx{Plan: 3}) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(5) }},
		{"Counter.Value", func() { _ = c.Value() }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-2) }},
		{"Gauge.Value", func() { _ = g.Value() }},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n != 0 {
			t.Errorf("%s on a nil receiver allocates %v per call, want 0", tc.name, n)
		}
	}
}

func TestTracerOrderAndFields(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(10*time.Millisecond, EvArrival, 42, 1, -1, -1)
	tr.Record(10*time.Millisecond, EvRoute, 42, 1, 3, -1)
	tr.Record(25*time.Millisecond, EvDone, 42, 1, 3, 7)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[1].Kind != EvRoute || evs[1].Device != 3 || evs[1].Query != 42 {
		t.Fatalf("route event malformed: %+v", evs[1])
	}
	if evs[2].Batch != 7 {
		t.Fatalf("done event batch: %+v", evs[2])
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, EvArrival, uint64(i), 0, -1, -1)
	}
	if tr.Len() != 4 {
		t.Fatalf("want 4 buffered, got %d", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("want 6 dropped, got %d", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := uint64(6 + i)
		if ev.Query != want || ev.Seq != want {
			t.Fatalf("event %d: want query/seq %d, got %+v", i, want, ev)
		}
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(time.Duration(i), EvEnqueue, uint64(g*100+i), 0, 0, -1)
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("want 800 events, got %d", tr.Len())
	}
	seen := make(map[uint64]bool)
	for _, ev := range tr.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestExportByteStable(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(64)
		tr.Record(1*time.Millisecond, EvArrival, 1, 0, -1, -1)
		tr.Record(2*time.Millisecond, EvRoute, 1, 0, 2, -1)
		tr.Record(5*time.Millisecond, EvBatchFormed, 1, 0, 2, 3)
		tr.Record(9*time.Millisecond, EvLate, 1, 0, 2, 3)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL export not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Chrome trace export not byte-stable")
	}
}

func TestExportValidJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(1500*time.Microsecond, EvArrival, 9, 2, -1, -1)
	tr.Record(2500*time.Microsecond, EvDropped, 9, 2, -1, -1)

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, chrome.String())
	}
	if len(arr) != 2 || arr[0]["name"] != "arrival" || arr[0]["ts"] != float64(1500) {
		t.Fatalf("unexpected chrome events: %v", arr)
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
	var empty bytes.Buffer
	if err := NewTracer(4).WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	var none []any
	if err := json.Unmarshal(empty.Bytes(), &none); err != nil || len(none) != 0 {
		t.Fatalf("empty chrome trace invalid: %v %q", err, empty.String())
	}
}

func TestRecordCtxCausalContext(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(1*time.Millisecond, EvArrival, 5, 1, -1, -1)
	tr.RecordCtx(2*time.Millisecond, EvEnqueue, 5, 1, 3, -1, Ctx{Plan: 4, Episode: 2})
	tr.RecordCtx(3*time.Millisecond, EvDropped, 5, 1, 3, -1, Ctx{Plan: 4, Cause: CauseExpired})
	evs := tr.Events()
	if evs[0].Plan != 0 || evs[0].Episode != 0 || evs[0].Cause != CauseNone {
		t.Fatalf("Record should stamp zero context: %+v", evs[0])
	}
	if evs[1].Plan != 4 || evs[1].Episode != 2 || evs[1].Cause != CauseNone {
		t.Fatalf("enqueue context lost: %+v", evs[1])
	}
	if evs[2].Cause != CauseExpired {
		t.Fatalf("drop cause lost: %+v", evs[2])
	}

	var nilTr *Tracer
	nilTr.RecordCtx(time.Second, EvArrival, 1, 0, 0, -1, Ctx{Plan: 1})
	nilTr.SetDropCounter(nil)
	if nilTr.Len() != 0 {
		t.Fatal("nil tracer should be inert")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(1234567*time.Nanosecond, EvArrival, 9, 2, -1, -1)
	tr.RecordCtx(2*time.Millisecond, EvEnqueue, 9, 2, 1, -1, Ctx{Plan: 3, Episode: 1})
	tr.RecordCtx(3*time.Millisecond, EvRequeued, 9, 2, 1, -1, Ctx{Plan: 3, Cause: CauseDeviceFailure})
	tr.Record(4*time.Millisecond, EvDone, 9, 2, 2, 0)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	if _, err := ReadJSONL(strings.NewReader(`{"kind":"nonsense"}`)); err == nil {
		t.Fatal("unknown kind should fail the parse")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"done","cause":"nonsense"}`)); err == nil {
		t.Fatal("unknown cause should fail the parse")
	}
	// Values no tracer writes are refused with the line they stand on.
	first := `{"at_ns":0,"kind":"arrival","query":1}` + "\n"
	for _, bad := range []string{
		`{"at_ns":-1,"kind":"done","query":1}`,
		`{"at_ns":1,"kind":"done","query":1,"family":-1}`,
		`{"at_ns":1,"kind":"done","query":1,"family":2000000000}`,
	} {
		_, err := ReadJSONL(strings.NewReader(first + bad))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("%s: err = %v, want a refusal naming line 2", bad, err)
		}
	}
	if evs, err := ReadJSONL(strings.NewReader("\n\n")); err != nil || len(evs) != 0 {
		t.Fatalf("blank trace: %v %v", evs, err)
	}
}

func TestTracerDropCounter(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(4)
	tr.SetDropCounter(r.Counter("trace_dropped_total"))
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, EvArrival, uint64(i), 0, -1, -1)
	}
	if got := r.Counter("trace_dropped_total").Value(); got != 6 {
		t.Fatalf("trace_dropped_total = %d, want 6", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
	if standardHelp["trace_dropped_total"] == "" {
		t.Fatal("trace_dropped_total needs standard help text")
	}
}

func TestCauseNames(t *testing.T) {
	for c := Cause(0); c < numCauses; c++ {
		if c != CauseNone && c.String() == "" {
			t.Fatalf("cause %d has no name", c)
		}
		back, ok := CauseByName(c.String())
		if !ok || back != c {
			t.Fatalf("cause %d does not round-trip through %q", c, c.String())
		}
	}
	if CauseDeviceFailure.String() != "device_failure" || CauseStaleRoute.String() != "stale_route" {
		t.Fatalf("stable cause names changed")
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Fatalf("out-of-range cause name: %q", got)
	}
	if _, ok := CauseByName("bogus"); ok {
		t.Fatal("bogus cause should not resolve")
	}
	k, ok := KindByName("batch_formed")
	if !ok || k != EvBatchFormed {
		t.Fatalf("KindByName(batch_formed) = %v %v", k, ok)
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("bogus kind should not resolve")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" {
			t.Fatalf("event kind %d has no name", k)
		}
	}
	if EvDone.String() != "done" || EvBatchFormed.String() != "batch_formed" {
		t.Fatalf("stable wire names changed: %q %q", EvDone.String(), EvBatchFormed.String())
	}
	if got := EventKind(200).String(); got != "event(200)" {
		t.Fatalf("out-of-range kind name: %q", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("served")
	if c != r.Counter("served") {
		t.Fatalf("Counter not idempotent")
	}
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	g := r.Gauge("up")
	g.Set(10)
	g.Add(-4)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 metrics, got %v", snap)
	}
	// Sorted by name: "served" then "up".
	if snap[0].Name != "served" || snap[0].Value != 5 || snap[0].Kind != "counter" {
		t.Fatalf("counter snapshot: %+v", snap[0])
	}
	if snap[1].Name != "up" || snap[1].Value != 6 || snap[1].Kind != "gauge" {
		t.Fatalf("gauge snapshot: %+v", snap[1])
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "served 5\nup 6\n"
	if buf.String() != want {
		t.Fatalf("WriteText = %q, want %q", buf.String(), want)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
				r.Gauge("level").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("want 8000 hits, got %d", got)
	}
}

func TestCounterBundles(t *testing.T) {
	r := NewRegistry()
	sc := NewSystemCounters(r)
	sc.Arrivals.Inc()
	sc.BatchQueries.Add(8)
	sc.DevicesUp.Set(12)
	rc := NewRouterCounters(r)
	rc.Picks.Inc()
	rc.Shed.Inc()
	cc := NewControlCounters(r)
	cc.Reallocations.Inc()
	cc.CarryForwardPlans.Inc()

	want := map[string]int64{
		"queries_arrived_total":       1,
		"batch_queries_total":         8,
		"devices_up":                  12,
		"router_picks_total":          1,
		"router_shed_total":           1,
		"reallocations_total":         1,
		"realloc_carry_forward_total": 1,
	}
	got := make(map[string]int64)
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("metric %s = %d, want %d (snapshot %v)", name, got[name], v, got)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var nilReg *Registry
	var nilBuf bytes.Buffer
	if err := nilReg.WritePrometheus(&nilBuf); err != nil || nilBuf.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, nilBuf.Len())
	}

	r := NewRegistry()
	r.Counter("queries_arrived_total").Add(7)
	r.Gauge("devices_up").Set(4)
	r.Counter("zz_custom_total").Inc()
	r.SetHelp("zz_custom_total", "A custom metric.")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Canonical metrics get # HELP from the standard table; every metric
	// gets # TYPE with its kind; values follow on their own line.
	for _, w := range []string{
		"# HELP queries_arrived_total ",
		"# TYPE queries_arrived_total counter\nqueries_arrived_total 7\n",
		"# TYPE devices_up gauge\ndevices_up 4\n",
		"# HELP zz_custom_total A custom metric.\n# TYPE zz_custom_total counter\nzz_custom_total 1\n",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("prometheus output missing %q:\n%s", w, out)
		}
	}
	// Metrics appear sorted by name, and every non-comment line is
	// "name value".
	var prev string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		if prev != "" && name < prev {
			t.Fatalf("metrics out of order: %q after %q", name, prev)
		}
		prev = name
	}
	if PrometheusContentType != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", PrometheusContentType)
	}
}
