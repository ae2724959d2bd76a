// Package router implements the data-path half of a Proteus load balancer
// (§3): a request router that dispatches each query to a worker according
// to the controller's query-assignment policy {y_{d,q}}, and a monitoring
// daemon that tracks per-family demand and detects bursts that warrant an
// early re-allocation.
package router

import (
	"math"
	"slices"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/numeric"
	"proteus/internal/telemetry"
)

// Table is a routing table: normalized per-family device weights plus an
// admission fraction. The lookup path is O(number of devices serving the
// family); its space is O(D×Q) as §6.8 notes.
type Table struct {
	// devices[q] lists device IDs with positive weight for family q.
	devices [][]int
	// weights[q][i] is the normalized probability of devices[q][i].
	weights [][]float64
	// admit[q] is the fraction of family q's queries admitted; the rest are
	// shed at the load balancer. When the allocation provisions the full
	// demand this is 1; under overload it equals the plan's per-family
	// serving fraction, so workers see exactly the load the resource
	// manager sized them for instead of drowning in doomed queries.
	admit []float64

	// counters instrument the pick path; the zero value is inert.
	counters telemetry.RouterCounters
}

// SetCounters attaches telemetry counters to the pick path; Refill keeps
// them.
func (t *Table) SetCounters(c telemetry.RouterCounters) { t.counters = c }

// BuildTable derives a routing table from an allocation: a fresh Table
// filled by Refill.
func BuildTable(alloc *allocator.Allocation, families int) *Table {
	t := &Table{}
	t.Refill(alloc, families)
	return t
}

// Refill rebuilds t from an allocation in place, reusing its per-family
// slices. Weights are normalized per family; the admission fraction
// defaults to the plan row's sum (capped at 1).
func (t *Table) Refill(alloc *allocator.Allocation, families int) {
	t.devices = slices.Grow(t.devices[:0], families)[:families]
	t.weights = slices.Grow(t.weights[:0], families)[:families]
	t.admit = slices.Grow(t.admit[:0], families)
	for q := 0; q < families; q++ {
		row := alloc.Routing[q]
		sum, serving := 0.0, 0
		for _, y := range row {
			if y > 0 {
				sum += y
				serving++
			}
		}
		devices := slices.Grow(t.devices[q][:0], serving)
		weights := slices.Grow(t.weights[q][:0], serving)
		for d, y := range row {
			if y > 0 {
				devices = append(devices, d)
				weights = append(weights, y/sum)
			}
		}
		t.devices[q], t.weights[q] = devices, weights
		t.admit = append(t.admit, min(sum, 1))
	}
}

// SetAdmission overrides the per-family admission fractions (used when the
// table is rebuilt over a subset of available devices but admission should
// still follow the full plan).
func (t *Table) SetAdmission(admit []float64) {
	for q := range t.admit {
		if q < len(admit) {
			a := admit[q]
			if a > 1 {
				a = 1
			}
			if a < 0 {
				a = 0
			}
			t.admit[q] = a
		}
	}
}

// Pick selects a device for a query of family q, or -1 when the family has
// no serving devices or the query is shed by admission control.
func (t *Table) Pick(q int, rng *numeric.RNG) int { return t.PickExcluding(q, rng, nil) }

// PickExcluding selects a device for a query of family q like Pick, but
// renormalizes the plan's weights over the devices NOT excluded by the
// banned predicate — the overload guard's hook for backpressure (pressured
// mailboxes leave the candidate set) and emergency degradation (masked
// variant tiers leave it). When every candidate is banned the pick falls
// back to the full plan weights: sending the query somewhere keeps the
// deadline admission controller as the backstop instead of silently
// dropping whole families. Admission-fraction shed consumes exactly one
// rng draw, same as Pick, so enabling the guard does not perturb the
// shed sequence. A nil banned predicate makes this identical to Pick.
func (t *Table) PickExcluding(q int, rng *numeric.RNG, banned func(device int) bool) int {
	if q < 0 || q >= len(t.devices) || len(t.devices[q]) == 0 {
		t.counters.Shed.Inc()
		return -1
	}
	if t.admit[q] < 1 && rng.Float64() >= t.admit[q] {
		t.counters.Shed.Inc()
		return -1
	}
	weights := t.weights[q]
	if banned != nil {
		total := 0.0
		for i, d := range t.devices[q] {
			if !banned(d) {
				total += weights[i]
			}
		}
		if total > 0 {
			// Weighted pick over the allowed subset without allocating: walk
			// the cumulative allowed mass against one scaled rng draw.
			target := rng.Float64() * total
			last := -1
			for i, d := range t.devices[q] {
				if banned(d) {
					continue
				}
				last = i
				target -= weights[i]
				if target < 0 {
					break
				}
			}
			if last >= 0 {
				t.counters.Picks.Inc()
				return t.devices[q][last]
			}
		}
		// All candidates banned (or zero allowed mass): fall through to the
		// full plan weights.
	}
	i := numeric.WeightedChoice(rng, weights)
	if i < 0 {
		t.counters.Shed.Inc()
		return -1
	}
	t.counters.Picks.Inc()
	return t.devices[q][i]
}

// Devices returns the devices serving family q.
func (t *Table) Devices(q int) []int {
	if q < 0 || q >= len(t.devices) {
		return nil
	}
	return t.devices[q]
}

// Entries returns the total number of (family, device) routing entries.
func (t *Table) Entries() int {
	n := 0
	for _, d := range t.devices {
		n += len(d)
	}
	return n
}

// Monitor is a load balancer's monitoring daemon for one family (§3): it
// counts arrivals in one-second buckets, estimates demand over a sliding
// window, and flags bursts where the instantaneous rate exceeds the planned
// serving capacity by a configurable factor.
type Monitor struct {
	// WindowSeconds is the demand-estimation window (default 30, the
	// control period).
	WindowSeconds int
	// BurstFactor is the burst threshold multiplier over planned capacity
	// (default 1.5).
	BurstFactor float64

	buckets []int
	// bucketAt[i] is the absolute second index stored in buckets[i].
	bucketAt []int64
	planned  float64
}

// NewMonitor returns a monitor with the given window.
func NewMonitor(windowSeconds int, burstFactor float64) *Monitor {
	if windowSeconds < 1 {
		windowSeconds = 1
	}
	if burstFactor <= 0 {
		burstFactor = 1.5
	}
	return &Monitor{
		WindowSeconds: windowSeconds,
		BurstFactor:   burstFactor,
		buckets:       make([]int, windowSeconds+1),
		bucketAt:      make([]int64, windowSeconds+1),
	}
}

// SetPlanned records the serving capacity of the current allocation for
// this family, used by burst detection.
func (m *Monitor) SetPlanned(qps float64) { m.planned = qps }

// Observe records one arrival at time t.
func (m *Monitor) Observe(t time.Duration) {
	sec := int64(t / time.Second)
	i := sec % int64(len(m.buckets))
	if m.bucketAt[i] != sec {
		m.bucketAt[i] = sec
		m.buckets[i] = 0
	}
	m.buckets[i]++
}

// Rate estimates the demand in QPS over the window ending at t, excluding
// the (partial) current second.
func (m *Monitor) Rate(t time.Duration) float64 {
	cur := int64(t / time.Second)
	total := 0
	for s := cur - int64(m.WindowSeconds); s < cur; s++ {
		if s < 0 {
			continue
		}
		i := s % int64(len(m.buckets))
		if m.bucketAt[i] == s {
			total += m.buckets[i]
		}
	}
	secs := m.WindowSeconds
	if int64(secs) > cur {
		secs = int(cur)
	}
	if secs <= 0 {
		return 0
	}
	return float64(total) / float64(secs)
}

// InstantRate returns the arrival rate of the last completed second.
func (m *Monitor) InstantRate(t time.Duration) float64 {
	sec := int64(t/time.Second) - 1
	if sec < 0 {
		return 0
	}
	i := sec % int64(len(m.buckets))
	if m.bucketAt[i] != sec {
		return 0
	}
	return float64(m.buckets[i])
}

// Burst reports whether the last completed second's demand exceeded the
// planned capacity by the burst factor — the §3 trigger for calling the
// controller outside its regular period. A 3σ Poisson-noise floor keeps
// one-second count fluctuations of low-rate families from masquerading as
// bursts.
func (m *Monitor) Burst(t time.Duration) bool {
	if m.planned <= 0 {
		return false
	}
	threshold := m.BurstFactor * m.planned
	if noise := 3 * math.Sqrt(m.planned); threshold < m.planned+noise {
		threshold = m.planned + noise
	}
	return m.InstantRate(t) > threshold
}
