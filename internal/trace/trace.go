// Package trace builds and manipulates the query workloads of the paper's
// evaluation (§6.1.3): a Twitter-like diurnal demand trace split across
// model families by a Zipf distribution, macro-scale bursty traces (§6.3),
// and micro-scale inter-arrival processes (uniform, Poisson, Gamma) used to
// stress adaptive batching (§6.4).
//
// A Trace is a per-second aggregate demand curve per family, exactly like
// the paper's post-processed Twitter trace; Arrivals expands it into
// individual query arrival times with Poisson placement inside each second.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"proteus/internal/numeric"
)

// Trace is a demand curve: Demand[t][f] is the arrival rate (QPS) of family
// f during second t.
type Trace struct {
	Families []string
	Demand   [][]float64
}

// NewFlat returns a trace with constant per-family demand for the given
// number of seconds.
func NewFlat(families []string, qpsPerFamily []float64, seconds int) *Trace {
	if len(families) != len(qpsPerFamily) {
		panic("trace: families and qps length mismatch")
	}
	tr := &Trace{Families: append([]string(nil), families...)}
	for t := 0; t < seconds; t++ {
		tr.Demand = append(tr.Demand, append([]float64(nil), qpsPerFamily...))
	}
	return tr
}

// Seconds returns the trace duration in seconds.
func (tr *Trace) Seconds() int { return len(tr.Demand) }

// TotalQPS returns the summed demand across families during second t.
func (tr *Trace) TotalQPS(t int) float64 {
	return numeric.Sum(tr.Demand[t])
}

// FamilyQPS returns the demand of family index f during second t.
func (tr *Trace) FamilyQPS(t, f int) float64 { return tr.Demand[t][f] }

// PeakQPS returns the maximum total QPS over the trace.
func (tr *Trace) PeakQPS() float64 {
	peak := 0.0
	for t := range tr.Demand {
		if q := tr.TotalQPS(t); q > peak {
			peak = q
		}
	}
	return peak
}

// MeanQPS returns the average total QPS over the trace.
func (tr *Trace) MeanQPS() float64 {
	if len(tr.Demand) == 0 {
		return 0
	}
	sum := 0.0
	for t := range tr.Demand {
		sum += tr.TotalQPS(t)
	}
	return sum / float64(len(tr.Demand))
}

// Scale multiplies every demand entry by factor, returning a new trace.
func (tr *Trace) Scale(factor float64) *Trace {
	out := &Trace{Families: append([]string(nil), tr.Families...)}
	for _, row := range tr.Demand {
		nr := make([]float64, len(row))
		for i, v := range row {
			nr[i] = v * factor
		}
		out.Demand = append(out.Demand, nr)
	}
	return out
}

// Compress speeds the trace up by an integer factor without changing its
// shape, the paper's mechanism for overloading the system with a month-long
// trace (§6.1.3): each output second aggregates `factor` input seconds, so
// rates multiply by the factor and the duration divides by it.
func (tr *Trace) Compress(factor int) *Trace {
	if factor < 1 {
		panic("trace: compression factor must be >= 1")
	}
	out := &Trace{Families: append([]string(nil), tr.Families...)}
	nf := len(tr.Families)
	for start := 0; start+factor <= len(tr.Demand); start += factor {
		row := make([]float64, nf)
		for k := 0; k < factor; k++ {
			for f := 0; f < nf; f++ {
				row[f] += tr.Demand[start+k][f]
			}
		}
		out.Demand = append(out.Demand, row)
	}
	return out
}

// Slice returns the sub-trace covering seconds [from, to).
func (tr *Trace) Slice(from, to int) *Trace {
	if from < 0 || to > len(tr.Demand) || from > to {
		panic(fmt.Sprintf("trace: bad slice [%d,%d) of %d", from, to, len(tr.Demand)))
	}
	out := &Trace{Families: append([]string(nil), tr.Families...)}
	for t := from; t < to; t++ {
		out.Demand = append(out.Demand, append([]float64(nil), tr.Demand[t]...))
	}
	return out
}

// DiurnalConfig parameterizes the Twitter-like synthetic trace. The shape
// follows the features the paper relies on: diurnal sinusoidal pattern,
// sudden spikes, and noise.
type DiurnalConfig struct {
	Seconds int
	// BaseQPS is the total demand floor.
	BaseQPS float64
	// DiurnalAmplitude is the peak-over-base of the sinusoid (same units).
	DiurnalAmplitude float64
	// PeriodSeconds is the diurnal period (a "day" after compression).
	PeriodSeconds int
	// Spikes is the number of random demand spikes to overlay.
	Spikes int
	// SpikeMagnitude is each spike's additional QPS at its center.
	SpikeMagnitude float64
	// SpikeWidthSeconds is each spike's half-width.
	SpikeWidthSeconds int
	// NoiseFrac is multiplicative Gaussian noise (fraction of the level).
	NoiseFrac float64
	// ZipfAlpha splits total demand across families (paper: 1.001).
	ZipfAlpha float64
	// FamilyPhaseSpread staggers each family's diurnal peak by this
	// fraction of the period across families (0 = all peak together).
	// Real multi-tenant workloads peak at different times per application,
	// which shifts the demand *mix* over time and stresses model placement.
	FamilyPhaseSpread float64
	// Families are the query types sharing the trace.
	Families []string
	Seed     uint64
}

// NewDiurnal synthesizes a Twitter-like trace per the config.
func NewDiurnal(cfg DiurnalConfig) *Trace {
	if cfg.Seconds <= 0 || len(cfg.Families) == 0 {
		panic("trace: diurnal config needs Seconds and Families")
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = cfg.Seconds
	}
	if cfg.ZipfAlpha <= 0 {
		cfg.ZipfAlpha = 1.001
	}
	rng := numeric.NewRNG(cfg.Seed)
	zipf := numeric.NewZipf(len(cfg.Families), cfg.ZipfAlpha)
	shares := make([]float64, len(cfg.Families))
	for f := range shares {
		shares[f] = zipf.P(f)
	}

	type spike struct {
		center, width int
		mag           float64
	}
	spikes := make([]spike, cfg.Spikes)
	for i := range spikes {
		spikes[i] = spike{
			center: rng.Intn(cfg.Seconds),
			width:  cfg.SpikeWidthSeconds,
			mag:    cfg.SpikeMagnitude * (0.5 + rng.Float64()),
		}
		if spikes[i].width < 1 {
			spikes[i].width = 1
		}
	}

	tr := &Trace{Families: append([]string(nil), cfg.Families...)}
	nf := len(cfg.Families)
	for t := 0; t < cfg.Seconds; t++ {
		spikeLevel := 0.0
		for _, s := range spikes {
			d := float64(t - s.center)
			spikeLevel += s.mag * math.Exp(-d*d/(2*float64(s.width*s.width)))
		}
		row := make([]float64, nf)
		for f := range row {
			offset := 0.0
			if nf > 1 {
				offset = 2 * math.Pi * cfg.FamilyPhaseSpread * float64(f) / float64(nf)
			}
			phase := 2*math.Pi*float64(t)/float64(cfg.PeriodSeconds) + offset
			level := cfg.BaseQPS + cfg.DiurnalAmplitude*(1-math.Cos(phase))/2 + spikeLevel
			if cfg.NoiseFrac > 0 {
				level *= 1 + cfg.NoiseFrac*rng.NormFloat64()
			}
			if level < 0 {
				level = 0
			}
			row[f] = level * shares[f]
		}
		tr.Demand = append(tr.Demand, row)
	}
	return tr
}

// BurstyConfig parameterizes the macro-burst trace of §6.3: flat low demand
// interleaved with flat high-demand periods.
type BurstyConfig struct {
	Seconds      int
	LowQPS       float64
	HighQPS      float64
	LowSeconds   int
	HighSeconds  int
	ZipfAlpha    float64
	Families     []string
	StartWithLow bool
}

// NewBursty synthesizes the interleaved low/high trace.
func NewBursty(cfg BurstyConfig) *Trace {
	if cfg.Seconds <= 0 || len(cfg.Families) == 0 {
		panic("trace: bursty config needs Seconds and Families")
	}
	if cfg.LowSeconds <= 0 || cfg.HighSeconds <= 0 {
		panic("trace: bursty config needs positive period lengths")
	}
	if cfg.ZipfAlpha <= 0 {
		cfg.ZipfAlpha = 1.001
	}
	zipf := numeric.NewZipf(len(cfg.Families), cfg.ZipfAlpha)
	tr := &Trace{Families: append([]string(nil), cfg.Families...)}
	low := cfg.StartWithLow
	remaining := cfg.LowSeconds
	if !low {
		remaining = cfg.HighSeconds
	}
	for t := 0; t < cfg.Seconds; t++ {
		level := cfg.HighQPS
		if low {
			level = cfg.LowQPS
		}
		row := make([]float64, len(cfg.Families))
		for f := range row {
			row[f] = level * zipf.P(f)
		}
		tr.Demand = append(tr.Demand, row)
		remaining--
		if remaining == 0 {
			low = !low
			if low {
				remaining = cfg.LowSeconds
			} else {
				remaining = cfg.HighSeconds
			}
		}
	}
	return tr
}

// AdversarialConfig parameterizes the worst-case spike trace for the
// overload experiments: a flat base load with sharp square-wave spikes that
// start just after each control-period boundary — when the freshly solved
// plan is maximally stale — and land entirely on the heaviest Zipf family.
// Between solves the plan cannot react; only the fast-path overload guard
// can.
type AdversarialConfig struct {
	Seconds int
	// BaseQPS is the aggregate demand outside spikes, split across families
	// by a Zipf law.
	BaseQPS float64
	// SpikeQPS is ADDED to family 0's demand during a spike.
	SpikeQPS float64
	// SpikeSeconds is each spike's duration; PeriodSeconds the spacing of
	// spike starts (align it with the system's control period to hit the
	// stale-plan window).
	SpikeSeconds  int
	PeriodSeconds int
	// SpikeOffset delays each spike past the period boundary (default 1s —
	// right after the periodic solve is applied).
	SpikeOffset int
	ZipfAlpha   float64
	Families    []string
}

// NewAdversarial synthesizes the stale-plan spike trace.
func NewAdversarial(cfg AdversarialConfig) *Trace {
	if cfg.Seconds <= 0 || len(cfg.Families) == 0 {
		panic("trace: adversarial config needs Seconds and Families")
	}
	if cfg.SpikeSeconds <= 0 || cfg.PeriodSeconds <= 0 {
		panic("trace: adversarial config needs positive spike and period lengths")
	}
	if cfg.SpikeOffset <= 0 {
		cfg.SpikeOffset = 1
	}
	if cfg.ZipfAlpha <= 0 {
		cfg.ZipfAlpha = 1.001
	}
	zipf := numeric.NewZipf(len(cfg.Families), cfg.ZipfAlpha)
	tr := &Trace{Families: append([]string(nil), cfg.Families...)}
	for t := 0; t < cfg.Seconds; t++ {
		row := make([]float64, len(cfg.Families))
		for f := range row {
			row[f] = cfg.BaseQPS * zipf.P(f)
		}
		if phase := t % cfg.PeriodSeconds; phase >= cfg.SpikeOffset && phase < cfg.SpikeOffset+cfg.SpikeSeconds {
			row[0] += cfg.SpikeQPS
		}
		tr.Demand = append(tr.Demand, row)
	}
	return tr
}

// Arrival is one query arrival: its time offset from trace start and the
// family (query type) index it belongs to.
type Arrival struct {
	Time   time.Duration
	Family int
}

// Arrivals expands the trace into individual queries. Within each second
// the number of arrivals per family is Poisson with the bin's rate and the
// times are uniform in the bin — i.e. a piecewise-homogeneous Poisson
// process, the paper's §6.1.3 construction. The result is sorted by time.
func (tr *Trace) Arrivals(rng *numeric.RNG) []Arrival {
	// Sized once for the expected count plus four standard deviations of the
	// Poisson total: regrowing a list of ~10^6 arrivals by appends allocates
	// and copies five times its final size.
	expected := 0.0
	for _, row := range tr.Demand {
		for _, rate := range row {
			expected += rate
		}
	}
	out := make([]Arrival, 0, int(expected+4*math.Sqrt(expected))+1)
	for t, row := range tr.Demand {
		for f, rate := range row {
			n := rng.Poisson(rate)
			for i := 0; i < n; i++ {
				at := time.Duration((float64(t) + rng.Float64()) * float64(time.Second))
				out = append(out, Arrival{Time: at, Family: f})
			}
		}
	}
	slices.SortFunc(out, ByTime)
	return out
}

// ByTime compares two arrivals by time alone — the order Arrivals sorts
// into and the simulator replays in.
func ByTime(a, b Arrival) int { return cmp.Compare(a.Time, b.Time) }

// ArrivalProcess selects the micro-scale inter-arrival distribution of §6.4.
type ArrivalProcess int

// The three inter-arrival processes compared in Figure 6.
const (
	// Uniform spaces queries evenly (deterministic inter-arrivals).
	Uniform ArrivalProcess = iota
	// PoissonProcess draws exponential inter-arrivals.
	PoissonProcess
	// GammaProcess draws Gamma-distributed inter-arrivals with small shape
	// (0.05 in the paper), producing heavy micro-bursts at the same rate.
	GammaProcess
)

func (p ArrivalProcess) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case PoissonProcess:
		return "poisson"
	case GammaProcess:
		return "gamma"
	}
	return "unknown"
}

// GammaShape is the paper's burstiness parameter for GammaProcess.
const GammaShape = 0.05

// InterArrivalTimes generates arrival offsets at the given mean rate for
// the given duration using the selected process. The mean inter-arrival is
// 1/rate for every process; only the variance differs.
func InterArrivalTimes(p ArrivalProcess, rate float64, d time.Duration, rng *numeric.RNG) []time.Duration {
	if rate <= 0 {
		return nil
	}
	mean := 1 / rate
	var out []time.Duration
	now := 0.0
	limit := d.Seconds()
	for {
		var gap float64
		switch p {
		case Uniform:
			gap = mean
		case PoissonProcess:
			gap = rng.Exp(rate)
		case GammaProcess:
			gap = rng.Gamma(GammaShape, mean/GammaShape)
		default:
			panic("trace: unknown arrival process")
		}
		now += gap
		if now >= limit {
			return out
		}
		out = append(out, time.Duration(now*float64(time.Second)))
	}
}

// SingleFamilyArrivals converts raw times into Arrival records for family
// index f.
func SingleFamilyArrivals(times []time.Duration, f int) []Arrival {
	out := make([]Arrival, len(times))
	for i, t := range times {
		out[i] = Arrival{Time: t, Family: f}
	}
	return out
}
