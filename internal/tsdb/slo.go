package tsdb

import "time"

// SLOConfig parameterizes the sliding-window SLO monitor.
type SLOConfig struct {
	// Target is the violation-ratio budget (the acceptable fraction of
	// queries that miss their SLO). Default 0.01.
	Target float64
	// BurnRate is the multiple of Target at which a window is considered
	// burning. A burn episode starts when BOTH the short and the long
	// window burn above this rate, and ends when either stops. Default 2.
	BurnRate float64
	// ShortWindow is the fast-reacting window (default 5s); LongWindow the
	// confirmation window (default 60s). Both are truncated to whole
	// seconds, the monitor's bucket granularity.
	ShortWindow time.Duration
	LongWindow  time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target <= 0 {
		c.Target = 0.01
	}
	if c.BurnRate <= 0 {
		c.BurnRate = 2
	}
	if c.ShortWindow < time.Second {
		c.ShortWindow = 5 * time.Second
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 12 * c.ShortWindow
	}
	return c
}

// BurnEvent marks a transition of one family's SLO burn state. Start=true
// opens an episode (both windows burning above SLOConfig.BurnRate),
// Start=false closes it. ShortBurn/LongBurn carry the burn rates (window
// violation ratio divided by the target) at the transition.
type BurnEvent struct {
	At        time.Duration `json:"at_ns"`
	Family    int           `json:"family"`
	Start     bool          `json:"start"`
	ShortBurn float64       `json:"short_burn"`
	LongBurn  float64       `json:"long_burn"`
}

// sloFamily is one family's ring of one-second buckets. Slot i holds the
// counts of absolute second at[i]; a slot whose at does not match the
// queried second is stale and counts as empty, so the ring never needs
// explicit clearing.
type sloFamily struct {
	arrivals   []int
	violations []int
	at         []int64
	burning    bool
	// evalSec is the second evaluate last derived the burn state in (-1
	// before the first call).
	evalSec int64
}

// sloMonitor tracks violation ratios per family over two sliding windows
// and detects burn-state transitions.
type sloMonitor struct {
	cfg       SLOConfig
	shortSecs int64
	longSecs  int64
	fams      []sloFamily
}

func newSLOMonitor(cfg SLOConfig, families int) *sloMonitor {
	cfg = cfg.withDefaults()
	m := &sloMonitor{
		cfg:       cfg,
		shortSecs: int64(cfg.ShortWindow / time.Second),
		longSecs:  int64(cfg.LongWindow / time.Second),
		fams:      make([]sloFamily, families),
	}
	// One extra slot so the partial current second never aliases the
	// oldest complete second of the long window.
	n := m.longSecs + 1
	for f := range m.fams {
		m.fams[f] = sloFamily{
			arrivals:   make([]int, n),
			violations: make([]int, n),
			at:         make([]int64, n),
			evalSec:    -1,
		}
		for i := range m.fams[f].at {
			m.fams[f].at[i] = -1
		}
	}
	return m
}

// slot rolls family f's ring to the second containing now and returns the
// active slot index.
func (m *sloMonitor) slot(f int, now time.Duration) int {
	sec := int64(now / time.Second)
	fam := &m.fams[f]
	i := int(sec % int64(len(fam.at)))
	if fam.at[i] != sec {
		fam.at[i] = sec
		fam.arrivals[i] = 0
		fam.violations[i] = 0
	}
	return i
}

func (m *sloMonitor) observeArrival(f int, now time.Duration) {
	fam := &m.fams[f]
	fam.arrivals[m.slot(f, now)]++
}

func (m *sloMonitor) observeViolation(f int, now time.Duration) {
	fam := &m.fams[f]
	fam.violations[m.slot(f, now)]++
}

// ratio returns the violation ratio of family f over the `window` complete
// seconds ending at (and excluding) the current second of now. A window
// with no arrivals has ratio 0 unless violations landed in it (completions
// of earlier arrivals), in which case the ratio saturates at 1.
func (m *sloMonitor) ratio(f int, now time.Duration, window int64) float64 {
	fam := &m.fams[f]
	cur := int64(now / time.Second)
	var arr, vio int
	for s := cur - window; s < cur; s++ {
		if s < 0 {
			continue
		}
		i := int(s % int64(len(fam.at)))
		if fam.at[i] != s {
			continue
		}
		arr += fam.arrivals[i]
		vio += fam.violations[i]
	}
	if vio == 0 {
		return 0
	}
	if vio >= arr {
		return 1
	}
	return float64(vio) / float64(arr)
}

// evaluate derives family f's burn state at time now and returns the
// transition event, if any. The windows only cover complete seconds, so the
// verdict cannot change within a second: the first call in a second sums the
// windows, the rest return at once. (A live-mode observation stamped with an
// already completed second is seen one second late.)
func (m *sloMonitor) evaluate(f int, now time.Duration) (BurnEvent, bool) {
	fam := &m.fams[f]
	sec := int64(now / time.Second)
	if sec == fam.evalSec {
		return BurnEvent{}, false
	}
	fam.evalSec = sec
	shortBurn := m.ratio(f, now, m.shortSecs) / m.cfg.Target
	longBurn := m.ratio(f, now, m.longSecs) / m.cfg.Target
	burning := shortBurn >= m.cfg.BurnRate && longBurn >= m.cfg.BurnRate
	if burning == fam.burning {
		return BurnEvent{}, false
	}
	fam.burning = burning
	return BurnEvent{
		At:        now,
		Family:    f,
		Start:     burning,
		ShortBurn: shortBurn,
		LongBurn:  longBurn,
	}, true
}
