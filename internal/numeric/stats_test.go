package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
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
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero-value Welford must report 0")
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
		var w Welford
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

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation must initialize: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("value %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("value %v, want 15", e.Value())
	}
}

func TestEWMAConverges(t *testing.T) {
	e := EWMA{Alpha: 0.3}
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
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
	if Max(xs) != 4 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v", Min(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Fatal("empty Max/Min must be infinities")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}
