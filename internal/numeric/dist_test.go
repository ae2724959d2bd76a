package numeric

import (
	"math"
	"testing"
)

func TestExpMean(t *testing.T) {
	r := NewRNG(21)
	for _, rate := range []float64{0.5, 1, 5, 100} {
		var w welford
		for i := 0; i < 100000; i++ {
			w.Add(r.Exp(rate))
		}
		want := 1 / rate
		if math.Abs(w.Mean()-want) > 0.05*want {
			t.Errorf("Exp(%v) mean %v, want ~%v", rate, w.Mean(), want)
		}
	}
}

func TestExpNonNegative(t *testing.T) {
	r := NewRNG(22)
	for i := 0; i < 10000; i++ {
		if v := r.Exp(3); v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestPoissonMeanAndVariance(t *testing.T) {
	r := NewRNG(23)
	for _, mean := range []float64{0.5, 3, 12, 80, 400} {
		var w welford
		for i := 0; i < 50000; i++ {
			w.Add(float64(r.Poisson(mean)))
		}
		if math.Abs(w.Mean()-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean %v", mean, w.Mean())
		}
		if math.Abs(w.Variance()-mean) > 0.12*mean+0.2 {
			t.Errorf("Poisson(%v) variance %v", mean, w.Variance())
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := NewRNG(24)
	for i := 0; i < 100; i++ {
		if r.Poisson(0) != 0 {
			t.Fatal("Poisson(0) must be 0")
		}
		if r.Poisson(-1) != 0 {
			t.Fatal("Poisson(negative) must be 0")
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(25)
	cases := []struct{ shape, scale float64 }{
		{0.05, 20}, // the paper's bursty inter-arrival shape
		{0.5, 2},
		{1, 1},
		{4, 0.25},
	}
	for _, c := range cases {
		var w welford
		for i := 0; i < 200000; i++ {
			w.Add(r.Gamma(c.shape, c.scale))
		}
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(w.Mean()-wantMean) > 0.08*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean %v, want ~%v", c.shape, c.scale, w.Mean(), wantMean)
		}
		if math.Abs(w.Variance()-wantVar) > 0.2*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) variance %v, want ~%v", c.shape, c.scale, w.Variance(), wantVar)
		}
	}
}

func TestGammaNonNegative(t *testing.T) {
	r := NewRNG(26)
	for i := 0; i < 10000; i++ {
		if v := r.Gamma(0.05, 10); v < 0 {
			t.Fatalf("negative gamma sample %v", v)
		}
	}
}

func TestGammaSmallShapeIsBursty(t *testing.T) {
	// Gamma with shape << 1 must have coefficient of variation >> 1,
	// i.e. much burstier than exponential (CV = 1).
	r := NewRNG(27)
	var w welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Gamma(0.05, 1))
	}
	cv := w.StdDev() / w.Mean()
	if cv < 2 {
		t.Fatalf("Gamma(0.05) CV %v, want >> 1", cv)
	}
}

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(9, 1.001)
	sum := 0.0
	prev := math.Inf(1)
	for i := 0; i < 9; i++ {
		p := z.P(i)
		if p <= 0 || p > 1 {
			t.Fatalf("P(%d) = %v out of range", i, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("Zipf probabilities not monotone: P(%d)=%v > P(%d)=%v", i, p, i-1, prev)
		}
		prev = p
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	z := NewZipf(5, 1.001)
	r := NewRNG(31)
	counts := make([]int, 5)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i := range counts {
		got := float64(counts[i]) / n
		want := z.P(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestZipfRankOneDominates(t *testing.T) {
	z := NewZipf(9, 1.001)
	if z.P(0) <= z.P(8)*3 {
		t.Fatalf("Zipf head %v not dominant over tail %v", z.P(0), z.P(8))
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(33)
	weights := []float64{0, 1, 3, 0, 6}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		idx := WeightedChoice(r, weights)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight entries selected: %v", counts)
	}
	for i, want := range []float64{0, 0.1, 0.3, 0, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := NewRNG(34)
	if idx := WeightedChoice(r, []float64{0, 0}); idx != -1 {
		t.Fatalf("want -1 for all-zero weights, got %d", idx)
	}
	if idx := WeightedChoice(r, nil); idx != -1 {
		t.Fatalf("want -1 for empty weights, got %d", idx)
	}
}

func TestWeightedChoiceNegativeTreatedAsZero(t *testing.T) {
	r := NewRNG(35)
	for i := 0; i < 1000; i++ {
		if idx := WeightedChoice(r, []float64{-5, 2, -1}); idx != 1 {
			t.Fatalf("negative weight selected: %d", idx)
		}
	}
}
