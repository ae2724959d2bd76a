package tsdb

import (
	"sync"
	"time"
)

// Config parameterizes a Recorder.
type Config struct {
	// SampleInterval is the device time-series cadence. Default 1s.
	SampleInterval time.Duration
	// SLO configures the sliding-window burn monitor.
	SLO SLOConfig
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	c.SLO = c.SLO.withDefaults()
	return c
}

// DeviceState is what the hosting engine reports for one device at a
// sample tick. BusyTime is the device's cumulative execution time since
// the run started; the recorder differentiates it into per-interval
// utilization, so the engine never needs to track windows itself.
type DeviceState struct {
	Up         bool
	QueueDepth int
	LastBatch  int
	Variant    string
	BusyTime   time.Duration
	// SatMilli and Pressured carry the overload guard's saturation signal
	// (estimated queueing delay in thousandths of the SLO, and whether
	// backpressure excludes the device from routing). Zero when the guard is
	// disabled.
	SatMilli  int
	Pressured bool
}

// Sample is one recorded point of a device's time-series. UtilMilli is the
// fraction of the sample interval the device spent executing, in
// thousandths (integer so same-seed dumps are byte-identical).
type Sample struct {
	At         time.Duration `json:"at_ns"`
	Device     int           `json:"device"`
	Up         bool          `json:"up"`
	QueueDepth int           `json:"queue_depth"`
	BatchSize  int           `json:"batch_size"`
	UtilMilli  int           `json:"util_milli"`
	Variant    string        `json:"variant,omitempty"`
	// SatMilli / Pressured mirror DeviceState's overload signal; omitted
	// from JSON when the guard is off so pre-guard dumps stay byte-identical.
	SatMilli  int  `json:"sat_milli,omitempty"`
	Pressured bool `json:"pressured,omitempty"`
}

// Recorder collects the windowed observability signals of one run: the
// per-device sampled time-series and the SLO burn monitor. The hosting
// engine drives it through four calls — Arrival and Violation on the data
// path, Sample at a fixed cadence, and Init once at assembly time.
//
// A nil *Recorder turns every method into a no-op, matching the telemetry
// package's "nil is off, and off is free" convention. All methods are safe
// for concurrent use (the live serving layer calls them from many
// goroutines); the simulator's single-threaded calls pay one uncontended
// lock. The burn callback runs under the recorder's lock and must not call
// back into the recorder.
type Recorder struct {
	mu       sync.Mutex
	cfg      Config
	slo      *sloMonitor
	onBurn   func(BurnEvent)
	samples  []Sample
	lastBusy []time.Duration
	burns    []BurnEvent
	// Per-phase latency decomposition histograms, by family and by device
	// (see phases.go). phaseFam is sized at Init; phaseDev grows on demand.
	phaseFam []phaseSet
	phaseDev []phaseSet
}

// NewRecorder returns an empty recorder with defaults applied.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults()}
}

// Init sizes the recorder for a run of the given family count and installs
// the burn-transition callback (which may be nil). The hosting engine calls
// it once at assembly time; re-initializing resets all recorded state, so a
// recorder serves exactly one run. The new run's logs are new arrays: a
// window read before stays as it was.
func (r *Recorder) Init(families int, onBurn func(BurnEvent)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slo = newSLOMonitor(r.cfg.SLO, families)
	r.onBurn = onBurn
	r.samples = nil
	r.lastBusy = nil
	r.burns = nil
	r.phaseFam = make([]phaseSet, families)
	r.phaseDev = nil
}

// SampleInterval returns the configured sampling cadence.
func (r *Recorder) SampleInterval() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SampleInterval
}

// SLO returns the resolved SLO monitor configuration.
func (r *Recorder) SLO() SLOConfig {
	if r == nil {
		return SLOConfig{}
	}
	return r.cfg.SLO
}

// Arrival records a query arrival of family f at time now and re-evaluates
// that family's burn state.
func (r *Recorder) Arrival(now time.Duration, f int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slo == nil || f < 0 || f >= len(r.slo.fams) {
		return
	}
	r.slo.observeArrival(f, now)
	r.transition(f, now)
}

// Violation records an SLO violation (late completion or drop) of family f
// at time now and re-evaluates that family's burn state.
func (r *Recorder) Violation(now time.Duration, f int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slo == nil || f < 0 || f >= len(r.slo.fams) {
		return
	}
	r.slo.observeViolation(f, now)
	r.transition(f, now)
}

// Sample appends one time-series point per device (indexed by position in
// devices) and re-evaluates every family's burn state, so burn episodes end
// at sampling cadence even when the data path goes quiet.
func (r *Recorder) Sample(now time.Duration, devices []DeviceState) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.lastBusy) < len(devices) {
		r.lastBusy = append(r.lastBusy, 0)
	}
	interval := r.cfg.SampleInterval
	for d, st := range devices {
		busy := st.BusyTime - r.lastBusy[d]
		r.lastBusy[d] = st.BusyTime
		if busy < 0 {
			busy = 0
		}
		if busy > interval {
			busy = interval
		}
		r.samples = append(r.samples, Sample{
			At:         now,
			Device:     d,
			Up:         st.Up,
			QueueDepth: st.QueueDepth,
			BatchSize:  st.LastBatch,
			UtilMilli:  int(busy * 1000 / interval),
			Variant:    st.Variant,
			SatMilli:   st.SatMilli,
			Pressured:  st.Pressured,
		})
	}
	if r.slo != nil {
		for f := range r.slo.fams {
			r.transition(f, now)
		}
	}
}

// transition folds one family's burn-state change (if any) into the burn
// log and the callback. Caller holds r.mu.
func (r *Recorder) transition(f int, now time.Duration) {
	ev, changed := r.slo.evaluate(f, now)
	if !changed {
		return
	}
	r.burns = append(r.burns, ev)
	if r.onBurn != nil {
		r.onBurn(ev)
	}
}

// SamplesSince returns the samples recorded at or after cursor — an index
// into the append-only sample log, in record order (time-major,
// device-minor) — together with the log's length, the next cursor. The
// result is a window of the log, not a copy: the recorder never rewrites a
// sample once appended (Init starts a new log rather than truncating), and
// the window's capacity ends at its length, so it never changes and
// appending to it cannot reach the log. Callers must not write to it.
// SamplesSince(0) is the whole log.
func (r *Recorder) SamplesSince(cursor int) ([]Sample, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return window(r.samples, cursor), len(r.samples)
}

// BurnsSince is SamplesSince for the burn-transition log.
func (r *Recorder) BurnsSince(cursor int) ([]BurnEvent, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return window(r.burns, cursor), len(r.burns)
}

// window returns log[cursor:] capped at its end, with cursor clamped to
// the log.
func window[T any](log []T, cursor int) []T {
	n := len(log)
	cursor = min(max(cursor, 0), n)
	return log[cursor:n:n]
}
