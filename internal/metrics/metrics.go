// Package metrics implements the evaluation metrics of the paper (§6.1.4):
// throughput (QPS served), effective accuracy (mean accuracy of
// successfully served queries), maximum accuracy drop over the trace, and
// SLO violation ratio — both as whole-run summaries and per-interval time
// series (the timeseries panels of Figures 4, 5, 7 and 9), with per-family
// breakdowns (Figure 9).
package metrics

import (
	"fmt"
	"io"
	"math"
	"time"

	"proteus/internal/tsdb"
)

// Collector accumulates query outcomes into fixed-width time bins. It is
// not safe for concurrent use; the simulator is single-threaded and the
// live serving layer wraps it in a mutex.
type Collector struct {
	interval time.Duration
	families []string
	bins     []*bin

	// hists[f] aggregates every completed query's end-to-end latency for
	// family f (served and late alike) into a log-linear histogram, for mean
	// and percentile reporting. Bucket boundaries are value-determined, so
	// histograms merge exactly (LatencyHistogram(-1) merges these).
	hists []*tsdb.Histogram

	// Failure accounting. Device-level events (failures, recoveries) are
	// aggregate-only: a failure takes down every family hosted there.
	// Requeue/retry are query-level and tracked per family as well.
	failures   int
	recoveries int
	requeuedF  []int
	retriedF   []int
	requeued   int
	retried    int
	// pendingFail holds the times of failures whose re-allocation has not
	// landed yet; FailureHandled drains it into the time-to-recover stat.
	pendingFail []time.Duration
	recoverSum  time.Duration
	recoverN    int
}

type bin struct {
	arrivals []int
	served   []int // completed within SLO
	late     []int // completed after the deadline
	dropped  []int // never completed
	accSum   []float64
	// lat is the bin's latency histogram over every family's completions.
	lat tsdb.Histogram
}

// NewCollector returns a collector with the given bin width and family
// names (family index space matches the trace/router).
func NewCollector(interval time.Duration, families []string) *Collector {
	if interval <= 0 {
		panic("metrics: interval must be positive")
	}
	hists := make([]*tsdb.Histogram, len(families))
	for f := range hists {
		hists[f] = &tsdb.Histogram{}
	}
	return &Collector{
		interval:  interval,
		families:  append([]string(nil), families...),
		hists:     hists,
		requeuedF: make([]int, len(families)),
		retriedF:  make([]int, len(families)),
	}
}

// Interval returns the bin width.
func (c *Collector) Interval() time.Duration { return c.interval }

// Families returns the family names.
func (c *Collector) Families() []string { return c.families }

func (c *Collector) binAt(t time.Duration) *bin {
	if t < 0 {
		t = 0
	}
	idx := int(t / c.interval)
	for len(c.bins) <= idx {
		n := len(c.families)
		c.bins = append(c.bins, &bin{
			arrivals: make([]int, n),
			served:   make([]int, n),
			late:     make([]int, n),
			dropped:  make([]int, n),
			accSum:   make([]float64, n),
		})
	}
	return c.bins[idx]
}

func (c *Collector) checkFamily(f int) {
	if f < 0 || f >= len(c.families) {
		panic(fmt.Sprintf("metrics: family index %d out of range [0,%d)", f, len(c.families)))
	}
}

// Arrival records a query arrival of family f at time t.
func (c *Collector) Arrival(t time.Duration, f int) {
	c.checkFamily(f)
	c.binAt(t).arrivals[f]++
}

// Served records a query of family f completing within its SLO at time t
// with the given model accuracy and end-to-end latency.
func (c *Collector) Served(t time.Duration, f int, accuracy float64, latency time.Duration) {
	c.checkFamily(f)
	b := c.binAt(t)
	b.served[f]++
	b.accSum[f] += accuracy
	c.recordLatency(b, f, latency)
}

// Late records a query of family f completing after its deadline at time t.
// Late completions count as SLO violations, not as successful service.
func (c *Collector) Late(t time.Duration, f int, latency time.Duration) {
	c.checkFamily(f)
	b := c.binAt(t)
	b.late[f]++
	c.recordLatency(b, f, latency)
}

// recordLatency feeds one completion latency into both the whole-run
// histogram of family f and the bin's.
func (c *Collector) recordLatency(b *bin, f int, latency time.Duration) {
	c.hists[f].RecordDuration(latency)
	b.lat.RecordDuration(latency)
}

// Dropped records a query of family f dropped (never executed) at time t.
func (c *Collector) Dropped(t time.Duration, f int) {
	c.checkFamily(f)
	c.binAt(t).dropped[f]++
}

// DeviceFailed records a device failure at time t. The failure stays
// pending until FailureHandled observes the control plane's response.
func (c *Collector) DeviceFailed(t time.Duration) {
	c.failures++
	c.pendingFail = append(c.pendingFail, t)
}

// DeviceRecovered records a device coming back at time t.
func (c *Collector) DeviceRecovered(t time.Duration) { c.recoveries++ }

// Requeued records a query of family f returned to the router at time t
// because its device failed mid-flight.
func (c *Collector) Requeued(t time.Duration, f int) {
	c.checkFamily(f)
	c.requeued++
	c.requeuedF[f]++
}

// Retried records a query of family f re-dispatched to another replica at
// time t after losing its original device.
func (c *Collector) Retried(t time.Duration, f int) {
	c.checkFamily(f)
	c.retried++
	c.retriedF[f]++
}

// FailureHandled records that a failure-triggered re-allocation took effect
// at time t, closing out every pending failure: the elapsed time per failure
// feeds the mean time-to-recover stat.
func (c *Collector) FailureHandled(t time.Duration) {
	for _, ft := range c.pendingFail {
		if d := t - ft; d > 0 {
			c.recoverSum += d
			c.recoverN++
		}
	}
	c.pendingFail = c.pendingFail[:0]
}

// Point is one bin of the exported time series.
type Point struct {
	Start time.Duration
	// DemandQPS is the arrival rate during the bin.
	DemandQPS float64
	// ThroughputQPS is the rate of queries served within SLO.
	ThroughputQPS float64
	// EffectiveAccuracy is the mean accuracy of served queries (NaN when
	// the bin served none).
	EffectiveAccuracy float64
	// Violations counts late plus dropped queries in the bin.
	Violations int
}

// Series exports the overall per-bin time series. A negative family selects
// the aggregate over all families.
func (c *Collector) Series(family int) []Point {
	sec := c.interval.Seconds()
	out := make([]Point, len(c.bins))
	for i, b := range c.bins {
		var arr, served, late, dropped int
		var acc float64
		for f := range c.families {
			if family >= 0 && f != family {
				continue
			}
			arr += b.arrivals[f]
			served += b.served[f]
			late += b.late[f]
			dropped += b.dropped[f]
			acc += b.accSum[f]
		}
		p := Point{
			Start:         time.Duration(i) * c.interval,
			DemandQPS:     float64(arr) / sec,
			ThroughputQPS: float64(served) / sec,
			Violations:    late + dropped,
		}
		if served > 0 {
			p.EffectiveAccuracy = acc / float64(served)
		} else {
			p.EffectiveAccuracy = math.NaN()
		}
		out[i] = p
	}
	return out
}

// WriteSeriesCSV writes a time series as CSV, one row per bin, its columns
// named after name.
func WriteSeriesCSV(w io.Writer, name string, series []Point) error {
	if _, err := fmt.Fprintf(w, "second,%s_demand,%s_tput,%s_acc,%s_violations\n", name, name, name, name); err != nil {
		return err
	}
	for _, p := range series {
		acc := p.EffectiveAccuracy
		if math.IsNaN(acc) {
			acc = 0
		}
		if _, err := fmt.Fprintf(w, "%.0f,%.2f,%.2f,%.2f,%d\n",
			p.Start.Seconds(), p.DemandQPS, p.ThroughputQPS, acc, p.Violations); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates a whole run, matching §6.1.4.
type Summary struct {
	Queries       int
	Served        int
	Late          int
	Dropped       int
	AvgThroughput float64 // QPS served over the run
	AvgDemand     float64 // QPS arrived over the run
	// EffectiveAccuracy is the mean accuracy of all served queries.
	EffectiveAccuracy float64
	// MaxAccuracyDrop is 100 minus the minimum per-bin effective accuracy
	// (bins that served nothing are skipped), per §6.1.4.
	MaxAccuracyDrop float64
	// ViolationRatio is (late + dropped) / arrivals.
	ViolationRatio float64
	// MeanLatency is the exact mean completion latency of executed queries;
	// P50/P95/P99/P999Latency are exact-rank quantiles read from the
	// log-linear latency histogram over the same population, accurate to one
	// bucket width (relative error <= ~3.1%; 0 when nothing completed).
	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	P999Latency time.Duration

	// Device failure accounting (aggregate only; zero for per-family
	// summaries — a device failure is not attributable to one family).
	Failures   int
	Recoveries int
	// Requeued counts queries returned to the router by a failed device;
	// Retried counts those successfully re-dispatched to another replica.
	// Both are per-family in per-family summaries.
	Requeued int
	Retried  int
	// MeanTimeToRecover is the mean delay from a device failure to the
	// re-allocation that answers it taking effect (0 when no failure was
	// handled).
	MeanTimeToRecover time.Duration
}

// Summarize computes the run summary. A negative family selects the
// aggregate over all families.
func (c *Collector) Summarize(family int) Summary {
	var s Summary
	var accSum float64
	minBinAcc := math.Inf(1)
	for _, b := range c.bins {
		var binServed int
		var binAcc float64
		for f := range c.families {
			if family >= 0 && f != family {
				continue
			}
			s.Queries += b.arrivals[f]
			s.Served += b.served[f]
			s.Late += b.late[f]
			s.Dropped += b.dropped[f]
			accSum += b.accSum[f]
			binServed += b.served[f]
			binAcc += b.accSum[f]
		}
		if binServed > 0 {
			if a := binAcc / float64(binServed); a < minBinAcc {
				minBinAcc = a
			}
		}
	}
	hist := c.LatencyHistogram(family)
	dur := time.Duration(len(c.bins)) * c.interval
	if dur > 0 {
		s.AvgThroughput = float64(s.Served) / dur.Seconds()
		s.AvgDemand = float64(s.Queries) / dur.Seconds()
	}
	if s.Served > 0 {
		s.EffectiveAccuracy = accSum / float64(s.Served)
	}
	if !math.IsInf(minBinAcc, 1) {
		s.MaxAccuracyDrop = 100 - minBinAcc
	}
	if s.Queries > 0 {
		s.ViolationRatio = float64(s.Late+s.Dropped) / float64(s.Queries)
	}
	if hist.Count() > 0 {
		s.MeanLatency = time.Duration(hist.Mean())
		var buf [4]int64
		q := hist.Quantiles(latencyQuantiles, buf[:0])
		s.P50Latency, s.P95Latency = time.Duration(q[0]), time.Duration(q[1])
		s.P99Latency, s.P999Latency = time.Duration(q[2]), time.Duration(q[3])
	}
	if family < 0 {
		s.Failures = c.failures
		s.Recoveries = c.recoveries
		s.Requeued = c.requeued
		s.Retried = c.retried
		if c.recoverN > 0 {
			s.MeanTimeToRecover = c.recoverSum / time.Duration(c.recoverN)
		}
	} else {
		s.Requeued = c.requeuedF[family]
		s.Retried = c.retriedF[family]
	}
	return s
}

// LatencyHistogram returns a copy of the whole-run latency histogram of a
// family; a negative family merges all families (which, bucket boundaries
// being value-determined, equals a histogram recorded over the union).
func (c *Collector) LatencyHistogram(family int) *tsdb.Histogram {
	if family >= 0 {
		c.checkFamily(family)
		return c.hists[family].Clone()
	}
	merged := &tsdb.Histogram{}
	for _, h := range c.hists {
		merged.Merge(h)
	}
	return merged
}

// latencyQuantiles are the p50, p95, p99 and p999 of a Summary or a
// LatencyPoint, ascending so that one bucket walk finds them all.
var latencyQuantiles = []float64{0.50, 0.95, 0.99, 0.999}

// LatencyPoint is one bin of the windowed latency-percentile series.
type LatencyPoint struct {
	Start time.Duration
	// Count is the number of completions (served + late) in the bin.
	Count uint64
	// P50..P999 are exact-rank quantiles over the bin's completions
	// (0 when the bin completed nothing).
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	P999 time.Duration
}

// WindowPercentiles exports the per-bin latency quantile series over all
// families.
func (c *Collector) WindowPercentiles() []LatencyPoint {
	out := make([]LatencyPoint, len(c.bins))
	var buf [4]int64
	for i, b := range c.bins {
		h := &b.lat
		p := LatencyPoint{Start: time.Duration(i) * c.interval, Count: h.Count()}
		if h.Count() > 0 {
			q := h.Quantiles(latencyQuantiles, buf[:0])
			p.P50, p.P95 = time.Duration(q[0]), time.Duration(q[1])
			p.P99, p.P999 = time.Duration(q[2]), time.Duration(q[3])
		}
		out[i] = p
	}
	return out
}

// String formats the summary for reports.
func (s Summary) String() string {
	out := fmt.Sprintf(
		"queries=%d served=%d late=%d dropped=%d tput=%.1fqps acc=%.2f%% maxdrop=%.2f%% violations=%.4f",
		s.Queries, s.Served, s.Late, s.Dropped, s.AvgThroughput,
		s.EffectiveAccuracy, s.MaxAccuracyDrop, s.ViolationRatio)
	if s.Served+s.Late > 0 {
		out += fmt.Sprintf(" lat[mean=%v p50=%v p95=%v p99=%v]",
			s.MeanLatency.Round(time.Millisecond), s.P50Latency.Round(time.Millisecond),
			s.P95Latency.Round(time.Millisecond), s.P99Latency.Round(time.Millisecond))
	}
	if s.Failures > 0 {
		out += fmt.Sprintf(" failures=%d recoveries=%d requeued=%d retried=%d ttr=%v",
			s.Failures, s.Recoveries, s.Requeued, s.Retried,
			s.MeanTimeToRecover.Round(time.Millisecond))
	}
	return out
}
