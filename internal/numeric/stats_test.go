package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

// welford accumulates a running mean and variance in one pass: the
// distribution tests' moment estimator. The zero value is ready to use.
type welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *welford) N() int { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (0 with fewer than two samples).
func (w *welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero-value welford must report 0")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single sample: mean %v var %v", w.Mean(), w.Variance())
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var w welford
		sum := 0.0
		for i, v := range raw {
			xs[i] = float64(v)
			w.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		if math.Abs(w.Mean()-mean) > 1e-6 {
			return false
		}
		if len(xs) < 2 {
			return true
		}
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		return math.Abs(w.Variance()-naive) <= 1e-6*(1+naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{3, -1, 4}
	if Mean(xs) != 2 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Sum(xs) != 6 {
		t.Fatalf("Sum = %v", Sum(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
}
