package main

import (
	"math"
	"sort"

	"proteus/internal/numeric"
	"proteus/internal/tsdb"
)

// median returns the middle of xs (mean of the two middle values for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.Quantile(xs, p/100)
}

// midmean returns the mean of the middle half of xs (the interquartile
// mean): as robust to a slow outlier as the median, with less variance when
// the samples genuinely differ. Fewer than four samples fall back to the mean.
func midmean(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

// reportablePercentiles are the tail percentiles the harness will print, in
// ascending order.
var reportablePercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupportedPercentile returns the highest reportable percentile that
// still has at least ten of the n samples beyond it, and false when not even
// the median does (n < 20).
func highestSupportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range reportablePercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// weighted is one value carrying a sample count.
type weighted struct {
	v float64
	n uint64
}

// weightedPercentile returns the smallest value whose cumulative count
// reaches p percent of the total (nearest rank), or 0 when nothing was
// counted.
func weightedPercentile(ws []weighted, p float64) float64 {
	s := append([]weighted(nil), ws...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total uint64
	for _, w := range s {
		total += w.n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, w := range s {
		cum += w.n
		if cum >= rank {
			return w.v
		}
	}
	return s[len(s)-1].v
}

// sloFractions turns per-family latency histograms into (latency ÷ family
// SLO) samples: one weighted value per non-empty bucket, at the bucket's
// midpoint. Accurate to one bucket width (about 3 %).
func sloFractions(hists []*tsdb.Histogram, slosNS []float64) []weighted {
	var out []weighted
	for f, h := range hists {
		for _, b := range h.Buckets() {
			mid := (float64(b.Low) + float64(b.High)) / 2
			out = append(out, weighted{v: mid / slosNS[f], n: b.Count})
		}
	}
	return out
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 { return numeric.Mean(xs) }
