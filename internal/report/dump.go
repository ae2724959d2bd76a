// Package report assembles a run's observability outputs — the metrics
// collector's windowed series, the tsdb device time-series and SLO burn
// log, and the controller's decision audit — into one serializable Dump
// and renders it as a self-contained HTML report (inline SVG, no scripts).
// Everything is byte-deterministic: same-seed runs produce identical JSON
// and HTML.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"proteus/internal/attrib"
	"proteus/internal/controlplane"
	"proteus/internal/metrics"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Meta identifies the run a dump came from.
type Meta struct {
	Label string `json:"label,omitempty"`
	Seed  uint64 `json:"seed"`
	// BinS is the metrics collector's window width in seconds; SampleS the
	// tsdb device-sampling cadence (0 when no recorder ran).
	BinS    float64  `json:"bin_s"`
	SampleS float64  `json:"sample_s,omitempty"`
	Devices []string `json:"devices,omitempty"`
	// SLO echoes the resolved burn-monitor parameters.
	SLOTarget   float64 `json:"slo_target,omitempty"`
	SLOBurnRate float64 `json:"slo_burn_rate,omitempty"`
	SLOShortS   float64 `json:"slo_short_s,omitempty"`
	SLOLongS    float64 `json:"slo_long_s,omitempty"`
}

// WindowPoint is one collector bin: demand/served rates, accuracy,
// violations and latency quantiles.
type WindowPoint struct {
	StartS         float64 `json:"start_s"`
	DemandQPS      float64 `json:"demand_qps"`
	ServedQPS      float64 `json:"served_qps"`
	Accuracy       float64 `json:"accuracy"`
	Violations     int     `json:"violations"`
	ViolationRatio float64 `json:"violation_ratio"`
	Count          uint64  `json:"completions"`
	P50MS          float64 `json:"p50_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	P999MS         float64 `json:"p999_ms"`
}

// FamilySummary is one family's whole-run aggregate.
type FamilySummary struct {
	Name    string          `json:"name"`
	Summary metrics.Summary `json:"summary"`
}

// Dump is the full serializable state of one run.
type Dump struct {
	Meta     Meta             `json:"meta"`
	Summary  metrics.Summary  `json:"summary"`
	Families []FamilySummary  `json:"families,omitempty"`
	Windows  []WindowPoint    `json:"windows,omitempty"`
	Samples  []tsdb.Sample    `json:"samples,omitempty"`
	Burns    []tsdb.BurnEvent `json:"burns,omitempty"`
	// Phases is the per-family / per-device latency decomposition summary
	// (empty when no tsdb recorder ran or no query completed).
	Phases []tsdb.PhaseStat          `json:"phases,omitempty"`
	Plans  []controlplane.PlanRecord `json:"plans,omitempty"`
	// Attribution is the SLO-violation attribution section (nil when the
	// run had no lifecycle tracer).
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Attribution is the latency-attribution section of a dump: aggregate blame
// tables plus the worst violated queries' waterfalls (the full per-query
// report stays in the trace — re-derive it with proteus-explain).
type Attribution struct {
	Queries  int `json:"queries"`
	Violated int `json:"violated"`
	// Unfinished counts queries still in flight when the trace ended.
	Unfinished int `json:"unfinished,omitempty"`
	// TraceDropped / Incomplete mirror the tracer's ring-wrap evictions:
	// when set, the explanation is incomplete — the trace was truncated.
	TraceDropped uint64                 `json:"trace_dropped,omitempty"`
	Incomplete   bool                   `json:"incomplete,omitempty"`
	TopViolated  []attrib.Explanation   `json:"top_violated,omitempty"`
	Families     []attrib.FamilySummary `json:"families,omitempty"`
	Windows      []attrib.WindowSummary `json:"windows,omitempty"`
}

// BuildAttribution trims an attribution report into the dump section,
// keeping the k worst violated queries (k <= 0 means 10).
func BuildAttribution(rep *attrib.Report, k int) *Attribution {
	if k <= 0 {
		k = 10
	}
	a := &Attribution{
		Queries:      len(rep.Queries),
		Violated:     len(rep.Violated),
		Unfinished:   rep.Unfinished,
		TraceDropped: rep.TraceDropped,
		Incomplete:   rep.Incomplete,
		Families:     rep.Families,
		Windows:      rep.Windows,
	}
	for i := 0; i < len(rep.Violated) && i < k; i++ {
		a.TopViolated = append(a.TopViolated, rep.Queries[rep.Violated[i]])
	}
	return a
}

// BuildInput names the sources a Dump is assembled from. Collector is
// required; Recorder, Plans and DeviceNames are optional.
type BuildInput struct {
	Label       string
	Seed        uint64
	Collector   *metrics.Collector
	Recorder    *tsdb.Recorder
	Plans       []controlplane.PlanRecord
	DeviceNames []string
	// Events, when non-empty, runs the latency attribution pass and fills
	// Dump.Attribution. TraceDropped is the tracer's ring-wrap eviction
	// count; AttribTopK bounds the embedded worst-violated list (default 10).
	Events       []telemetry.Event
	TraceDropped uint64
	AttribTopK   int
}

// Build assembles a Dump. NaN series values (accuracy of an empty bin) are
// sanitized to 0 so the dump always marshals.
func Build(in BuildInput) *Dump {
	c := in.Collector
	d := &Dump{
		Meta: Meta{
			Label:   in.Label,
			Seed:    in.Seed,
			BinS:    c.Interval().Seconds(),
			Devices: in.DeviceNames,
		},
		Summary: c.Summarize(-1),
		Plans:   in.Plans,
	}
	for f, name := range c.Families() {
		d.Families = append(d.Families, FamilySummary{Name: name, Summary: c.Summarize(f)})
	}
	series := c.Series(-1)
	lats := c.WindowPercentiles()
	binS := c.Interval().Seconds()
	for i, p := range series {
		w := WindowPoint{
			StartS:     p.Start.Seconds(),
			DemandQPS:  p.DemandQPS,
			ServedQPS:  p.ThroughputQPS,
			Accuracy:   sanitize(p.EffectiveAccuracy),
			Violations: p.Violations,
		}
		if arrived := p.DemandQPS * binS; arrived > 0 {
			w.ViolationRatio = float64(p.Violations) / arrived
		}
		if i < len(lats) {
			w.Count = lats[i].Count
			w.P50MS = ms(lats[i].P50)
			w.P95MS = ms(lats[i].P95)
			w.P99MS = ms(lats[i].P99)
			w.P999MS = ms(lats[i].P999)
		}
		d.Windows = append(d.Windows, w)
	}
	if in.Recorder != nil {
		d.Meta.SampleS = in.Recorder.SampleInterval().Seconds()
		slo := in.Recorder.SLO()
		d.Meta.SLOTarget = slo.Target
		d.Meta.SLOBurnRate = slo.BurnRate
		d.Meta.SLOShortS = slo.ShortWindow.Seconds()
		d.Meta.SLOLongS = slo.LongWindow.Seconds()
		d.Samples, _ = in.Recorder.SamplesSince(0)
		d.Burns, _ = in.Recorder.BurnsSince(0)
		d.Phases = in.Recorder.PhaseStats()
	}
	if len(in.Events) > 0 {
		rep := attrib.Analyze(attrib.Input{
			Events:       in.Events,
			Plans:        in.Plans,
			FamilyNames:  c.Families(),
			TraceDropped: in.TraceDropped,
		})
		d.Attribution = BuildAttribution(rep, in.AttribTopK)
	}
	return d
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// WriteJSON serializes the dump with a stable layout: encoding/json visits
// struct fields in declaration order, so same-seed dumps are byte-identical.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes the dump JSON to path.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDump parses a dump written by WriteJSON.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: parsing dump: %w", err)
	}
	return &d, nil
}

// ReadDumpFile parses a dump file.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}
