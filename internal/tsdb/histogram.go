// Package tsdb is the windowed-aggregation layer of the observability
// stack: log-linear bucketed latency histograms with exact-rank quantiles
// and cheap merges, per-device sampled time-series (utilization, queue
// depth, batch size, hosted variant), and a sliding-window SLO monitor
// computing violation ratios and multi-window burn rates. Everything is
// stdlib-only, allocation-conscious, and deterministic: bucket boundaries
// are fixed integer functions of the value, timestamps are supplied by the
// caller (virtual clock in simulation, wall clock since start in live
// serving), and two same-seed simulator runs produce byte-identical dumps.
package tsdb

import (
	"math"
	"math/bits"
	"time"
)

// Histogram bucket geometry: values 0..subBucketCount-1 get unit-width
// buckets; every further power-of-two range splits into subBucketCount
// linear sub-buckets. The relative quantization error is therefore at most
// 2^-subBucketBits (~3.1%), and bucket boundaries are fixed integer
// functions of the value alone, so merging two histograms or re-running a
// seeded simulation can never move a sample across buckets.
const (
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits
)

// Histogram is a log-linear (HDR-style) histogram over non-negative int64
// values — by convention nanoseconds, so time.Duration records directly.
// The zero value is an empty histogram ready to use. Not safe for
// concurrent use; owners wrap it in their own lock.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBucketCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1), e >= subBucketBits
	block := e - subBucketBits + 1
	sub := int(v>>uint(e-subBucketBits)) - subBucketCount
	return block*subBucketCount + sub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	block := i / subBucketCount
	sub := i % subBucketCount
	return int64(subBucketCount+sub) << uint(block-1)
}

// bucketWidth returns the number of distinct values mapping to bucket i.
func bucketWidth(i int) int64 {
	if i < subBucketCount {
		return 1
	}
	return int64(1) << uint(i/subBucketCount-1)
}

// bucketHigh returns the largest value mapping to bucket i.
func bucketHigh(i int) int64 {
	return bucketLow(i) + bucketWidth(i) - 1
}

// Record adds one value. Negative values clamp to zero (latencies are
// non-negative by construction; clamping keeps arithmetic bugs visible in
// bucket zero instead of panicking mid-run).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// RecordDuration adds one duration (in nanoseconds).
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean (integer division, matching a sum-and-divide
// over the raw samples), or 0 when empty.
func (h *Histogram) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / int64(h.count)
}

// Quantiles appends the exact-rank p-quantile of each p in ps to dst and
// returns it: the upper edge of the bucket holding the ceil(p*count)-th
// smallest sample, clamped to the observed [min, max]. The true
// nearest-rank value lies in the same bucket, so the error is bounded by
// one bucket width (relative error <= 2^-subBucketBits); an empty
// histogram's quantiles are 0. Each p walks the buckets from its near end:
// a rank in the lower half walks up from min's bucket, one in the upper half
// walks down from max's, so the tail quantiles of a wide histogram cost a
// few buckets, not all of them. Both walks stop at the bucket a full walk up
// from bucket 0 would.
func (h *Histogram) Quantiles(ps []float64, dst []int64) []int64 {
	for _, p := range ps {
		if h.count == 0 {
			dst = append(dst, 0)
			continue
		}
		rank := uint64(math.Ceil(p * float64(h.count)))
		rank = min(max(rank, 1), h.count)
		var j int
		if rank <= h.count/2 {
			// The first bucket whose samples up to and including it reach
			// rank; every bucket below min's is empty.
			j = bucketIndex(h.min)
			for cum := h.counts[j]; cum < rank; cum += h.counts[j] {
				j++
			}
		} else {
			// The same bucket, as the last one from the top down whose
			// samples above it number at most count-rank; every bucket
			// above max's is empty.
			j = bucketIndex(h.max)
			for above := h.counts[j]; above <= h.count-rank; above += h.counts[j] {
				j--
			}
		}
		dst = append(dst, max(min(bucketHigh(j), h.max), h.min))
	}
	return dst
}

// Merge folds o into h bucket-by-bucket. Merging is associative and
// commutative, and because bucket boundaries are value-determined, a merge
// of per-window histograms is byte-identical to a histogram recorded over
// the union of their samples. A nil o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	out := *h
	out.counts = append([]uint64(nil), h.counts...)
	return &out
}

// Bucket is one non-empty bucket of a histogram snapshot.
type Bucket struct {
	Low   int64  `json:"low"`
	High  int64  `json:"high"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, Bucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
	}
	return out
}
