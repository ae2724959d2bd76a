package numeric

import "math"

// Exp returns an exponential sample with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("numeric: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0); Float64 is in [0,1).
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson sample with the given mean. For small means it
// uses Knuth's multiplication method; for large means a normal approximation
// with continuity correction, which is more than accurate enough for
// workload synthesis.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

// Gamma returns a Gamma(shape, scale) sample using the Marsaglia–Tsang
// method, with the standard boosting trick for shape < 1. The mean of the
// distribution is shape*scale. Gamma with small shape produces the highly
// bursty inter-arrival processes used in the paper's §6.4 (shape 0.05).
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("numeric: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent
// alpha. Probabilities are precomputed so sampling is O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n ranks with exponent alpha > 0.
// The paper uses alpha = 1.001 to split queries across model families.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("numeric: Zipf with non-positive n")
	}
	if alpha <= 0 {
		panic("numeric: Zipf with non-positive alpha")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// P returns the probability of rank i.
func (z *Zipf) P(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Sample draws a rank in [0, N()).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero; if
// all weights are zero it returns -1.
func WeightedChoice(r *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Rounding fell off the end: return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
