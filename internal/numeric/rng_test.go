package numeric

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	a := NewRNG(7)
	c := a.Split()
	// The child must not replay the parent's stream.
	av := make([]uint64, 50)
	cv := make([]uint64, 50)
	for i := range av {
		av[i] = a.Uint64()
		cv[i] = c.Uint64()
	}
	same := 0
	for i := range av {
		if av[i] == cv[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream overlaps parent: %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var w welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", w.Mean())
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var w welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.02 {
		t.Fatalf("normal stddev %v, want ~1", w.StdDev())
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
	same := true
	for i := range xs {
		if xs[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Log("shuffle produced identity permutation (possible but unlikely)")
	}
}
