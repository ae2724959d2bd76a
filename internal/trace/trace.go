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

	"proteus/internal/models"
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

// TwitterConfig parameterizes the Twitter-like workload of the evaluation
// (§6.1.3): a diurnal curve with spikes and noise, Zipf-split across the
// families, sped up so that the run sees one rising flank of the day.
type TwitterConfig struct {
	// Seconds is the trace length (default 300).
	Seconds int
	// BaseQPS is the demand floor (default 180).
	BaseQPS float64
	// PeakQPS is the diurnal peak (default BaseQPS + 380, so 560).
	PeakQPS float64
	// Seed drives the synthesis (default 1).
	Seed uint64
	// Families defaults to the full zoo's family names.
	Families []string
}

// NewTwitter synthesizes the Twitter-like workload: three spikes of about an
// eighth of the peak, 3 % noise, Zipf 1.001 and family peaks staggered over
// 0.4 of a period three times the trace's length.
func NewTwitter(cfg TwitterConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.BaseQPS <= 0 {
		cfg.BaseQPS = 180
	}
	if cfg.PeakQPS <= cfg.BaseQPS {
		cfg.PeakQPS = cfg.BaseQPS + 380
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
	}
	return NewDiurnal(DiurnalConfig{
		Seconds:           cfg.Seconds,
		BaseQPS:           cfg.BaseQPS,
		DiurnalAmplitude:  cfg.PeakQPS - cfg.BaseQPS,
		PeriodSeconds:     cfg.Seconds * 3,
		Spikes:            3,
		SpikeMagnitude:    cfg.PeakQPS / 8,
		SpikeWidthSeconds: cfg.Seconds / 20,
		NoiseFrac:         0.03,
		ZipfAlpha:         1.001,
		FamilyPhaseSpread: 0.4,
		Families:          cfg.Families,
		Seed:              cfg.Seed,
	})
}

// MacroBurstConfig parameterizes the macro-burst workload of §6.3.
type MacroBurstConfig struct {
	// Seconds is the trace length (default 300).
	Seconds int
	// LowQPS and HighQPS are the two demand levels (defaults 150 and three
	// times LowQPS).
	LowQPS  float64
	HighQPS float64
	// PeriodSeconds is the length of each low and each high phase (default
	// Seconds/4).
	PeriodSeconds int
	// Families defaults to the full zoo's family names.
	Families []string
}

// NewMacroBurst synthesizes the macro-burst workload: equal low and high
// phases, low first, split across the families by Zipf 1.001.
func NewMacroBurst(cfg MacroBurstConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.LowQPS <= 0 {
		cfg.LowQPS = 150
	}
	if cfg.HighQPS <= cfg.LowQPS {
		cfg.HighQPS = cfg.LowQPS * 3
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = max(1, cfg.Seconds/4)
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
	}
	zipf := numeric.NewZipf(len(cfg.Families), 1.001)
	tr := &Trace{Families: append([]string(nil), cfg.Families...)}
	for t := 0; t < cfg.Seconds; t++ {
		level := cfg.LowQPS
		if (t/cfg.PeriodSeconds)%2 == 1 {
			level = cfg.HighQPS
		}
		row := make([]float64, len(cfg.Families))
		for f := range row {
			row[f] = level * zipf.P(f)
		}
		tr.Demand = append(tr.Demand, row)
	}
	return tr
}

// AdversarialConfig parameterizes the worst-case spike trace for the
// overload experiments: a flat base load with sharp square-wave spikes that
// start just after each control-period boundary — when the freshly solved
// plan is maximally stale — and land entirely on the heaviest Zipf family.
// Between solves the plan cannot react; only the fast-path overload guard
// can.
// Zero fields take defaults.
type AdversarialConfig struct {
	Seconds int // default 300
	// BaseQPS is the aggregate demand outside spikes, split across families
	// by a Zipf law (default 150).
	BaseQPS float64
	// SpikeQPS is ADDED to family 0's demand during a spike (default
	// 3×BaseQPS).
	SpikeQPS float64
	// SpikeSeconds is each spike's duration (default 10); PeriodSeconds the
	// spacing of spike starts (default 30; align it with the system's
	// control period to hit the stale-plan window).
	SpikeSeconds  int
	PeriodSeconds int
	// SpikeOffset delays each spike past the period boundary (default 1s —
	// right after the periodic solve is applied).
	SpikeOffset int
	ZipfAlpha   float64  // default 1.001
	Families    []string // default: the zoo's families
}

// NewAdversarial synthesizes the stale-plan spike trace.
func NewAdversarial(cfg AdversarialConfig) *Trace {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 300
	}
	if cfg.BaseQPS <= 0 {
		cfg.BaseQPS = 150
	}
	if cfg.SpikeQPS <= 0 {
		cfg.SpikeQPS = cfg.BaseQPS * 3
	}
	if cfg.SpikeSeconds <= 0 {
		cfg.SpikeSeconds = 10
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = 30
	}
	if len(cfg.Families) == 0 {
		cfg.Families = models.FamilyNames(models.Zoo())
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
// process, the paper's §6.1.3 construction. The result is sorted by time,
// equal times in generation order: family, then draw. That is the stable
// sort of the generation order, the order core.RunArrivals gives an unsorted
// slice.
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
	// A second's arrivals lie in [t, t+1) s, so sorting each second on its
	// own sorts the whole trace; bin and counts are that second's scratch.
	var bin []Arrival
	var counts []int
	for t, row := range tr.Demand {
		bin = bin[:0]
		for f, rate := range row {
			n := rng.Poisson(rate)
			for i := 0; i < n; i++ {
				at := time.Duration((float64(t) + rng.Float64()) * float64(time.Second))
				bin = append(bin, Arrival{Time: at, Family: f})
			}
		}
		out, counts = appendSecond(out, bin, time.Duration(t)*time.Second, counts)
	}
	return out
}

// appendSecond appends bin — the arrivals of the second starting at start,
// each at an offset in [0, 1 s] from it — to out in the order
// slices.SortStableFunc(bin, ByTime) would give, in time linear in len(bin)
// for uniform offsets. A counting pass places the arrivals into len(bin)
// equal-width buckets, in input order within each; an insertion pass then
// orders each bucket, and moves nothing across one. An offset of exactly
// 1 s — (t+u)·1e9 rounds up to it for large t — goes to the last bucket,
// which keeps it last. counts is scratch, returned for reuse.
func appendSecond(out, bin []Arrival, start time.Duration, counts []int) ([]Arrival, []int) {
	n := len(bin)
	if n == 0 {
		return out, counts
	}
	bucket := func(a Arrival) int {
		return min(int(uint64(a.Time-start)*uint64(n)/uint64(time.Second)), n-1)
	}
	// counts[k+1] counts bucket k; the prefix sum turns counts[k] into
	// bucket k's first slot, and placing an arrival advances it.
	if cap(counts) < n+1 {
		counts = make([]int, n+1)
	} else {
		counts = counts[:n+1]
		clear(counts)
	}
	for _, a := range bin {
		counts[bucket(a)+1]++
	}
	for k := 1; k < n; k++ {
		counts[k] += counts[k-1]
	}
	base := len(out)
	out = slices.Grow(out, n)[:base+n]
	dst := out[base:]
	for _, a := range bin {
		k := bucket(a)
		dst[counts[k]] = a
		counts[k]++
	}
	for i := 1; i < n; i++ {
		a := dst[i]
		j := i
		for ; j > 0 && a.Time < dst[j-1].Time; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = a
	}
	return out, counts
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
