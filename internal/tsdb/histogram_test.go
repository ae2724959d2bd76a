package tsdb

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// linearQuantiles is Quantiles as one walk up from bucket 0, resumed at the
// previous answer while ps ascend: the implementation the near-end walks
// replaced, kept as their oracle.
func linearQuantiles(h *Histogram, ps []float64, dst []int64) []int64 {
	// j is the bucket of the last answer and cum the samples up to and
	// including it: a higher rank resumes the walk there.
	j, cum := -1, uint64(0)
	for _, p := range ps {
		if h.count == 0 {
			dst = append(dst, 0)
			continue
		}
		rank := uint64(math.Ceil(p * float64(h.count)))
		rank = min(max(rank, 1), h.count)
		if j >= 0 && rank <= cum-h.counts[j] {
			j, cum = -1, 0
		}
		for cum < rank && j+1 < len(h.counts) {
			j++
			cum += h.counts[j]
		}
		dst = append(dst, max(min(bucketHigh(j), h.max), h.min))
	}
	return dst
}

// quantile returns h's p-quantile alone.
func quantile(h *Histogram, p float64) int64 { return h.Quantiles([]float64{p}, nil)[0] }

// exactQuantile is the nearest-rank quantile over raw sorted samples — the
// reference the histogram must stay within one bucket width of.
func exactQuantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// maxQuantileError is the error bound: the width of the bucket holding the
// exact value, i.e. one bucket width.
func maxQuantileError(v int64) int64 {
	return bucketWidth(bucketIndex(v))
}

func checkQuantiles(t *testing.T, name string, values []int64) {
	t.Helper()
	h := &Histogram{}
	var sum int64
	for _, v := range values {
		h.Record(v)
		if v < 0 {
			v = 0
		}
		sum += v
	}
	sorted := make([]int64, len(values))
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		sorted[i] = v
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != uint64(len(values)) {
		t.Fatalf("%s: count = %d, want %d", name, h.Count(), len(values))
	}
	if h.Sum() != sum {
		t.Fatalf("%s: sum = %d, want %d", name, h.Sum(), sum)
	}
	if h.min != sorted[0] {
		t.Fatalf("%s: min = %d, want %d", name, h.min, sorted[0])
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: max = %d, want %d", name, h.Max(), sorted[len(sorted)-1])
	}
	ps := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	// One walk for ascending ps, and again for the same ps out of order,
	// must find what a walk finds for each p alone.
	mixed := []float64{0.99, 0.5, 0.5, 1, 0, 0.999, 0.25}
	for _, order := range [][]float64{ps, mixed} {
		if got, want := h.Quantiles(order, nil), linearQuantiles(h, order, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: Quantiles(%v) = %v, the linear walk finds %v", name, order, got, want)
		}
		got := h.Quantiles(order, []int64{-1})
		if len(got) != len(order)+1 || got[0] != -1 {
			t.Fatalf("%s: Quantiles(%v) = %v, want dst's -1 then one value per p", name, order, got)
		}
		for i, p := range order {
			if want := quantile(h, p); got[i+1] != want {
				t.Errorf("%s: Quantiles(%v)[%d] = %d, Quantiles(%g) = %d", name, order, i, got[i+1], p, want)
			}
		}
	}
	for _, p := range ps {
		got := quantile(h, p)
		want := exactQuantile(sorted, p)
		bound := maxQuantileError(want)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			t.Errorf("%s: q(%g) = %d, exact %d, |diff| %d > bucket width %d",
				name, p, got, want, diff, bound)
		}
	}
}

func TestQuantileRankErrorBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		values := make([]int64, n)
		switch trial % 4 {
		case 0: // uniform microsecond-to-second latencies
			for i := range values {
				values[i] = rng.Int63n(int64(1e9))
			}
		case 1: // exponential-ish tail
			for i := range values {
				values[i] = int64(rng.ExpFloat64() * 5e6)
			}
		case 2: // small values exercising the linear buckets
			for i := range values {
				values[i] = rng.Int63n(64)
			}
		case 3: // full int64 range
			for i := range values {
				values[i] = rng.Int63()
			}
		}
		checkQuantiles(t, "random", values)
	}
}

func TestQuantileAdversarialInputs(t *testing.T) {
	cases := map[string][]int64{
		"single":          {7},
		"all-zero":        {0, 0, 0, 0},
		"all-identical":   {123456789, 123456789, 123456789},
		"negatives-clamp": {-5, -1, 3, 10},
		"max-int64":       {math.MaxInt64, 1, math.MaxInt64},
		"powers-of-two": {
			1, 2, 4, 8, 16, 32, 64, 128, 1 << 20, 1 << 40, 1 << 62,
		},
		"power-edges": {
			31, 32, 33, 63, 64, 65, (1 << 30) - 1, 1 << 30, (1 << 30) + 1,
		},
		"bimodal": {
			1, 1, 1, 1, 1, int64(1e9), int64(1e9), int64(1e9),
		},
	}
	for name, values := range cases {
		checkQuantiles(t, name, values)
	}
}

// FuzzQuantilesAgainstLinearWalk holds Quantiles to linearQuantiles. values
// is a run of uvarints, each recorded as an int64, so small values are cheap
// to reach and math.MaxInt64 and the negatives that clamp to 0 are
// reachable; ps is a run of little-endian uint16s scaled onto [0, 1], in any
// order.
func FuzzQuantilesAgainstLinearWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, values, ps []byte) {
		var h Histogram
		for len(values) > 0 {
			u, n := binary.Uvarint(values)
			if n <= 0 {
				break
			}
			values = values[n:]
			h.Record(int64(u))
		}
		var qs []float64
		for ; len(ps) >= 2; ps = ps[2:] {
			qs = append(qs, float64(binary.LittleEndian.Uint16(ps))/math.MaxUint16)
		}
		if got, want := h.Quantiles(qs, nil), linearQuantiles(&h, qs, nil); !slices.Equal(got, want) {
			t.Fatalf("%d values in [%d, %d]: Quantiles(%v) = %v, the linear walk finds %v",
				h.Count(), h.min, h.Max(), qs, got, want)
		}
	})
}

func TestMergeAssociativeAndEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([][]int64, 3)
	var all []int64
	for p := range parts {
		n := 200 + rng.Intn(300)
		parts[p] = make([]int64, n)
		for i := range parts[p] {
			parts[p][i] = rng.Int63n(int64(1e8))
		}
		all = append(all, parts[p]...)
	}
	record := func(values []int64) *Histogram {
		h := &Histogram{}
		for _, v := range values {
			h.Record(v)
		}
		return h
	}
	a, b, c := record(parts[0]), record(parts[1]), record(parts[2])

	// (a+b)+c
	left := a.Clone()
	left.Merge(b)
	left.Merge(c)
	// a+(b+c)
	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)
	// direct recording of the union
	direct := record(all)

	if !reflect.DeepEqual(left, right) {
		t.Fatal("merge is not associative: (a+b)+c != a+(b+c)")
	}
	if !reflect.DeepEqual(trimmed(left), trimmed(direct)) {
		t.Fatal("merged histogram differs from histogram of the union")
	}
}

// trimmed drops trailing zero buckets so histograms built through different
// grow paths compare equal when they hold the same distribution.
func trimmed(h *Histogram) *Histogram {
	out := h.Clone()
	n := len(out.counts)
	for n > 0 && out.counts[n-1] == 0 {
		n--
	}
	out.counts = out.counts[:n]
	return out
}

func TestMergeEmptyAndNil(t *testing.T) {
	h := &Histogram{}
	h.Record(100)
	before := h.Clone()
	h.Merge(nil)
	h.Merge(&Histogram{})
	if !reflect.DeepEqual(h, before) {
		t.Fatal("merging nil/empty changed the histogram")
	}
	empty := &Histogram{}
	empty.Merge(h)
	if empty.Count() != 1 || empty.min != 100 || empty.Max() != 100 {
		t.Fatalf("merge into empty: count=%d min=%d max=%d", empty.Count(), empty.min, empty.Max())
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram accessors must all return 0")
	}
	if quantile(h, 0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	if q := h.Quantiles([]float64{0.5, 0.99}, nil); len(q) != 2 || q[0] != 0 || q[1] != 0 {
		t.Fatalf("empty histogram quantiles %v, want [0 0]", q)
	}
	if h.Buckets() != nil {
		t.Fatal("empty histogram must have no buckets")
	}
}

func TestBucketGeometry(t *testing.T) {
	// Every representable boundary must round-trip: low and high of bucket i
	// both map back to i, and consecutive buckets tile the value space.
	for i := 0; i < 40*subBucketCount; i++ {
		lo, hi := bucketLow(i), bucketHigh(i)
		if hi < lo {
			break // beyond int64 range
		}
		if bucketIndex(lo) != i {
			t.Fatalf("bucketIndex(low(%d)=%d) = %d", i, lo, bucketIndex(lo))
		}
		if bucketIndex(hi) != i {
			t.Fatalf("bucketIndex(high(%d)=%d) = %d", i, hi, bucketIndex(hi))
		}
		if i > 0 && bucketHigh(i-1)+1 != lo {
			t.Fatalf("gap between bucket %d (high %d) and %d (low %d)",
				i-1, bucketHigh(i-1), i, lo)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	h.Record(int64(1e9)) // pre-grow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)%int64(1e9) + 1)
	}
}
