package tsdb

import (
	"slices"
	"time"
)

// Phase identifies one segment of a query's end-to-end latency. The hosting
// engine timestamps the query's lifecycle transitions (arrival, device
// enqueue, execution start, completion) and differences them into one
// duration per phase at completion time, so attribution costs a handful of
// subtractions per query instead of a trace-log scan. The phases partition
// the latency: their sum is the completion time minus the arrival.
type Phase uint8

const (
	// PhaseAdmission is arrival → device enqueue: routing, admission
	// control, and any requeue wait after a device failure or model change.
	PhaseAdmission Phase = iota
	// PhaseQueue is device enqueue → execution start: time spent waiting in
	// the device queue for the batching policy to start a batch.
	PhaseQueue
	// PhaseExec is execution start → completion: the batch's model latency.
	PhaseExec

	// NumPhases is the number of decomposition phases.
	NumPhases = int(PhaseExec) + 1
)

var phaseNames = [NumPhases]string{"admission", "queue", "exec"}

// String returns the phase's wire name ("admission", "queue", "exec").
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseDurations is one completed query's latency decomposition.
type PhaseDurations struct {
	Admission time.Duration
	Queue     time.Duration
	Exec      time.Duration
}

// phaseSet is one scope's (family's or device's) per-phase histograms.
type phaseSet [NumPhases]Histogram

// record adds one query's phases; Histogram.Record clamps negative ones.
func (ps *phaseSet) record(pd PhaseDurations) {
	ps[PhaseAdmission].RecordDuration(pd.Admission)
	ps[PhaseQueue].RecordDuration(pd.Queue)
	ps[PhaseExec].RecordDuration(pd.Exec)
}

// RecordPhases folds one completed query's decomposition into the
// per-family and per-device phase histograms. Negative durations (clock
// skew on the live path) clamp to zero. Out-of-range family indices are
// ignored; device histograms grow on demand so elastic clusters work.
func (r *Recorder) RecordPhases(family, device int, pd PhaseDurations) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if family >= 0 && family < len(r.phaseFam) {
		r.phaseFam[family].record(pd)
	}
	if device >= 0 && device < 1<<16 {
		for len(r.phaseDev) <= device {
			r.phaseDev = append(r.phaseDev, phaseSet{})
		}
		r.phaseDev[device].record(pd)
	}
}

// PhaseStat is one (scope, index, phase) row of the decomposition summary.
// Durations are integer microseconds so same-seed dumps stay byte-identical.
type PhaseStat struct {
	// Scope is "family" or "device"; Index is the family or device index.
	Scope  string `json:"scope"`
	Index  int    `json:"index"`
	Phase  string `json:"phase"`
	Count  uint64 `json:"count"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P95US  int64  `json:"p95_us"`
	P99US  int64  `json:"p99_us"`
	MaxUS  int64  `json:"max_us"`
}

// Valid reports whether the row names a scope and a phase PhaseStats
// writes: "family" or "device", and one of Phase's names.
func (s *PhaseStat) Valid() bool {
	return (s.Scope == "family" || s.Scope == "device") && slices.Contains(phaseNames[:], s.Phase)
}

// phaseQuantiles are the quantiles of a PhaseStat, ascending.
var phaseQuantiles = []float64{0.50, 0.95, 0.99}

// PhaseStats summarizes every non-empty phase histogram, family scopes
// first, ordered by index then phase — a deterministic order independent of
// arrival interleaving.
func (r *Recorder) PhaseStats() []PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []PhaseStat
	var buf [3]int64
	appendScope := func(scope string, sets []phaseSet) {
		for i := range sets {
			for p := 0; p < NumPhases; p++ {
				h := &sets[i][p]
				if h.Count() == 0 {
					continue
				}
				if out == nil {
					out = make([]PhaseStat, 0, (len(r.phaseFam)+len(r.phaseDev))*NumPhases)
				}
				q := h.Quantiles(phaseQuantiles, buf[:0])
				out = append(out, PhaseStat{
					Scope:  scope,
					Index:  i,
					Phase:  Phase(p).String(),
					Count:  h.Count(),
					MeanUS: h.Mean() / 1e3,
					P50US:  q[0] / 1e3,
					P95US:  q[1] / 1e3,
					P99US:  q[2] / 1e3,
					MaxUS:  h.Max() / 1e3,
				})
			}
		}
	}
	appendScope("family", r.phaseFam)
	appendScope("device", r.phaseDev)
	return out
}
