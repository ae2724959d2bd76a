package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

var fams = []string{"a", "b"}

func TestBasicSummary(t *testing.T) {
	c := NewCollector(time.Second, fams)
	// Second 0: 3 arrivals on family 0; 2 served (acc 90, 100), 1 dropped.
	c.Arrival(0, 0)
	c.Arrival(100*time.Millisecond, 0)
	c.Arrival(200*time.Millisecond, 0)
	c.Served(300*time.Millisecond, 0, 90, 50*time.Millisecond)
	c.Served(400*time.Millisecond, 0, 100, 60*time.Millisecond)
	c.Dropped(500*time.Millisecond, 0)
	s := c.Summarize(-1)
	if s.Queries != 3 || s.Served != 2 || s.Dropped != 1 || s.Late != 0 {
		t.Fatalf("counts %+v", s)
	}
	if math.Abs(s.EffectiveAccuracy-95) > 1e-9 {
		t.Fatalf("accuracy %v", s.EffectiveAccuracy)
	}
	if math.Abs(s.ViolationRatio-1.0/3.0) > 1e-9 {
		t.Fatalf("violation ratio %v", s.ViolationRatio)
	}
	if s.AvgThroughput != 2 || s.AvgDemand != 3 {
		t.Fatalf("throughput %v demand %v", s.AvgThroughput, s.AvgDemand)
	}
	if s.MeanLatency != 55*time.Millisecond {
		t.Fatalf("mean latency %v", s.MeanLatency)
	}
}

func TestLateCountsAsViolationNotService(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(0, 0)
	c.Late(900*time.Millisecond, 0, 900*time.Millisecond)
	s := c.Summarize(-1)
	if s.Served != 0 || s.Late != 1 {
		t.Fatalf("%+v", s)
	}
	if s.ViolationRatio != 1 {
		t.Fatalf("ratio %v", s.ViolationRatio)
	}
	if s.EffectiveAccuracy != 0 {
		t.Fatalf("accuracy of zero served must be 0, got %v", s.EffectiveAccuracy)
	}
}

func TestMaxAccuracyDrop(t *testing.T) {
	c := NewCollector(time.Second, fams)
	// Bin 0 at accuracy 100, bin 1 at 85, bin 2 empty, bin 3 at 95.
	c.Served(0, 0, 100, time.Millisecond)
	c.Served(1500*time.Millisecond, 0, 85, time.Millisecond)
	c.Served(3500*time.Millisecond, 0, 95, time.Millisecond)
	s := c.Summarize(-1)
	if math.Abs(s.MaxAccuracyDrop-15) > 1e-9 {
		t.Fatalf("max drop %v, want 15", s.MaxAccuracyDrop)
	}
}

func TestMaxAccuracyDropNoService(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(0, 0)
	c.Dropped(1, 0)
	if d := c.Summarize(-1).MaxAccuracyDrop; d != 0 {
		t.Fatalf("drop with no service %v", d)
	}
}

func TestPerFamilyBreakdown(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(0, 0)
	c.Served(0, 0, 90, time.Millisecond)
	c.Arrival(0, 1)
	c.Dropped(0, 1)
	s0 := c.Summarize(0)
	s1 := c.Summarize(1)
	if s0.Served != 1 || s0.ViolationRatio != 0 {
		t.Fatalf("family 0: %+v", s0)
	}
	if s1.Served != 0 || s1.ViolationRatio != 1 {
		t.Fatalf("family 1: %+v", s1)
	}
}

func TestSeries(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(0, 0)
	c.Arrival(0, 1)
	c.Served(500*time.Millisecond, 0, 92, time.Millisecond)
	c.Dropped(800*time.Millisecond, 1)
	c.Arrival(1500*time.Millisecond, 0)
	c.Late(1900*time.Millisecond, 0, 400*time.Millisecond)
	pts := c.Series(-1)
	if len(pts) != 2 {
		t.Fatalf("bins %d", len(pts))
	}
	if pts[0].DemandQPS != 2 || pts[0].ThroughputQPS != 1 || pts[0].Violations != 1 {
		t.Fatalf("bin 0: %+v", pts[0])
	}
	if math.Abs(pts[0].EffectiveAccuracy-92) > 1e-9 {
		t.Fatalf("bin 0 accuracy %v", pts[0].EffectiveAccuracy)
	}
	if pts[1].Violations != 1 || pts[1].ThroughputQPS != 0 {
		t.Fatalf("bin 1: %+v", pts[1])
	}
	if !math.IsNaN(pts[1].EffectiveAccuracy) {
		t.Fatalf("empty bin accuracy %v, want NaN", pts[1].EffectiveAccuracy)
	}
	if pts[1].Start != time.Second {
		t.Fatalf("bin 1 start %v", pts[1].Start)
	}
}

func TestSeriesPerFamily(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Served(0, 0, 90, time.Millisecond)
	c.Served(0, 1, 80, time.Millisecond)
	p0 := c.Series(0)
	if p0[0].ThroughputQPS != 1 || math.Abs(p0[0].EffectiveAccuracy-90) > 1e-9 {
		t.Fatalf("family 0 series %+v", p0[0])
	}
}

func TestIntervalScaling(t *testing.T) {
	c := NewCollector(10*time.Second, fams)
	for i := 0; i < 50; i++ {
		c.Served(time.Duration(i)*100*time.Millisecond, 0, 100, time.Millisecond)
	}
	pts := c.Series(-1)
	if len(pts) != 1 {
		t.Fatalf("bins %d", len(pts))
	}
	if pts[0].ThroughputQPS != 5 { // 50 queries over 10 seconds
		t.Fatalf("throughput %v", pts[0].ThroughputQPS)
	}
}

func TestNegativeTimesClampToFirstBin(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(-time.Second, 0)
	if pts := c.Series(-1); len(pts) != 1 || pts[0].Start != 0 {
		t.Fatalf("bins %+v, want the first alone", pts)
	}
}

func TestFamilyIndexPanics(t *testing.T) {
	c := NewCollector(time.Second, fams)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Arrival(0, 5)
}

func TestBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(0, fams)
}

func TestSummaryString(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Arrival(0, 0)
	c.Served(0, 0, 99, time.Millisecond)
	str := c.Summarize(-1).String()
	for _, want := range []string{"queries=1", "served=1", "acc=99.00%"} {
		if !strings.Contains(str, want) {
			t.Fatalf("summary %q missing %q", str, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := NewCollector(2*time.Second, fams)
	if c.Interval() != 2*time.Second || len(c.Families()) != 2 {
		t.Fatal("accessors broken")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector(time.Second, fams)
	// 100 samples: 1ms..100ms on family 0.
	for i := 1; i <= 100; i++ {
		c.Served(0, 0, 90, time.Duration(i)*time.Millisecond)
	}
	s := c.Summarize(-1)
	// Percentiles come from the log-linear histogram: accurate to one bucket
	// width (<= want/32 for values past the linear range).
	withinBucket := func(name string, got, want time.Duration) {
		t.Helper()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > want/32+1 {
			t.Fatalf("%s = %v, want %v within one bucket width (%v)", name, got, want, want/32+1)
		}
	}
	withinBucket("p50", s.P50Latency, 50*time.Millisecond)
	withinBucket("p95", s.P95Latency, 95*time.Millisecond)
	withinBucket("p99", s.P99Latency, 99*time.Millisecond)
	withinBucket("p99.9", s.P999Latency, 100*time.Millisecond)
	if got := s.String(); !strings.Contains(got, "p50=50ms") || !strings.Contains(got, "p99=") {
		t.Fatalf("summary string missing percentiles: %s", got)
	}
	// Late completions join the latency population too.
	c2 := NewCollector(time.Second, fams)
	c2.Served(0, 0, 90, 10*time.Millisecond)
	c2.Late(0, 0, 30*time.Millisecond)
	if s2 := c2.Summarize(-1); s2.MeanLatency != 20*time.Millisecond || s2.P99Latency != 30*time.Millisecond {
		t.Fatalf("mixed served/late latency: %+v", s2)
	}
	// Per-family percentiles only see that family's samples.
	c3 := NewCollector(time.Second, fams)
	c3.Served(0, 0, 90, 10*time.Millisecond)
	c3.Served(0, 1, 90, 70*time.Millisecond)
	if f := c3.Summarize(0); f.P99Latency != 10*time.Millisecond {
		t.Fatalf("family 0 p99 = %v, want 10ms", f.P99Latency)
	}
	// A summary with no completions reports zero percentiles and omits the
	// lat block from its string.
	c4 := NewCollector(time.Second, fams)
	c4.Arrival(0, 0)
	c4.Dropped(0, 0)
	s4 := c4.Summarize(-1)
	if s4.P50Latency != 0 || strings.Contains(s4.String(), "lat[") {
		t.Fatalf("empty-latency summary: %+v %q", s4, s4.String())
	}
}

// TestSummaryStringGolden pins the full report text format. The format is a
// compatibility surface (parsed by scripts and diffed across runs); value
// changes are fine, shape changes are not.
func TestSummaryStringGolden(t *testing.T) {
	c := NewCollector(time.Second, fams)
	for i := 0; i < 10; i++ {
		c.Arrival(0, 0)
	}
	for i := 0; i < 8; i++ {
		c.Served(0, 0, 90, 10*time.Millisecond)
	}
	c.Late(0, 0, 40*time.Millisecond)
	c.Dropped(0, 0)
	got := c.Summarize(-1).String()
	want := "queries=10 served=8 late=1 dropped=1 tput=8.0qps acc=90.00% " +
		"maxdrop=10.00% violations=0.2000 lat[mean=13ms p50=10ms p95=40ms p99=40ms]"
	if got != want {
		t.Fatalf("summary string changed:\n got %q\nwant %q", got, want)
	}
}

func TestLatencyHistogramAccessor(t *testing.T) {
	c := NewCollector(time.Second, fams)
	c.Served(0, 0, 90, 10*time.Millisecond)
	c.Served(0, 1, 90, 20*time.Millisecond)
	if n := c.LatencyHistogram(0).Count(); n != 1 {
		t.Fatalf("family 0 histogram count = %d, want 1", n)
	}
	merged := c.LatencyHistogram(-1)
	if merged.Count() != 2 || merged.Sum() != int64(30*time.Millisecond) || merged.Max() != int64(20*time.Millisecond) {
		t.Fatalf("merged histogram wrong: count=%d sum=%d max=%d", merged.Count(), merged.Sum(), merged.Max())
	}
	// The returned histogram is a copy: mutating it must not leak back.
	merged.Record(1)
	if c.LatencyHistogram(-1).Count() != 2 {
		t.Fatal("LatencyHistogram must return a copy")
	}
}

func TestWindowPercentiles(t *testing.T) {
	c := NewCollector(time.Second, fams)
	// Bin 0: fast completions; bin 2: slow; bin 1: empty.
	for i := 0; i < 10; i++ {
		c.Served(100*time.Millisecond, 0, 90, 5*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		c.Late(2*time.Second+100*time.Millisecond, 1, 500*time.Millisecond)
	}
	pts := c.WindowPercentiles()
	if len(pts) != 3 {
		t.Fatalf("want 3 bins, got %d", len(pts))
	}
	if pts[0].Count != 10 || pts[1].Count != 0 || pts[2].Count != 10 {
		t.Fatalf("bin counts: %+v", pts)
	}
	if pts[1].P50 != 0 {
		t.Fatal("empty bin must report zero percentiles")
	}
	if pts[0].P50 >= pts[2].P50 {
		t.Fatalf("bin 0 p50 %v should be far below bin 2 p50 %v", pts[0].P50, pts[2].P50)
	}
}
