package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"proteus/internal/numeric"
)

var fams = []string{"resnet", "bert", "yolo"}

func TestNewFlat(t *testing.T) {
	tr := NewFlat(fams, []float64{10, 5, 1}, 30)
	if tr.Seconds() != 30 {
		t.Fatalf("seconds %d", tr.Seconds())
	}
	if tr.TotalQPS(0) != 16 || tr.TotalQPS(29) != 16 {
		t.Fatalf("total QPS %v", tr.TotalQPS(0))
	}
	if tr.FamilyQPS(10, 1) != 5 {
		t.Fatalf("family QPS %v", tr.FamilyQPS(10, 1))
	}
	if tr.PeakQPS() != 16 || tr.MeanQPS() != 16 {
		t.Fatalf("peak %v mean %v", tr.PeakQPS(), tr.MeanQPS())
	}
}

func TestFlatPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFlat(fams, []float64{1}, 10)
}

func TestDiurnalShape(t *testing.T) {
	cfg := DiurnalConfig{
		Seconds: 600, BaseQPS: 100, DiurnalAmplitude: 300, PeriodSeconds: 600,
		NoiseFrac: 0.02, Families: fams, Seed: 7,
	}
	tr := NewDiurnal(cfg)
	if tr.Seconds() != 600 {
		t.Fatalf("seconds %d", tr.Seconds())
	}
	// The sinusoid starts at base, peaks mid-period near base+amplitude.
	start := tr.TotalQPS(0)
	mid := tr.TotalQPS(300)
	if start > 150 {
		t.Fatalf("start level %v, want near base 100", start)
	}
	if mid < 320 || mid > 480 {
		t.Fatalf("mid level %v, want near 400", mid)
	}
	for ti := 0; ti < tr.Seconds(); ti++ {
		if tr.TotalQPS(ti) < 0 {
			t.Fatal("negative demand")
		}
	}
}

func TestDiurnalZipfSplit(t *testing.T) {
	cfg := DiurnalConfig{
		Seconds: 10, BaseQPS: 1000, Families: fams, Seed: 3, ZipfAlpha: 1.001,
	}
	tr := NewDiurnal(cfg)
	z := numeric.NewZipf(3, 1.001)
	for f := 0; f < 3; f++ {
		got := tr.FamilyQPS(0, f) / tr.TotalQPS(0)
		if math.Abs(got-z.P(f)) > 1e-9 {
			t.Fatalf("family %d share %v, want %v", f, got, z.P(f))
		}
	}
	// Rank 0 must dominate (Zipf head).
	if tr.FamilyQPS(0, 0) <= tr.FamilyQPS(0, 2) {
		t.Fatal("Zipf ordering broken")
	}
}

func TestDiurnalSpikes(t *testing.T) {
	base := DiurnalConfig{Seconds: 300, BaseQPS: 100, Families: fams, Seed: 11}
	flat := NewDiurnal(base)
	spiked := base
	spiked.Spikes = 3
	spiked.SpikeMagnitude = 500
	spiked.SpikeWidthSeconds = 5
	sp := NewDiurnal(spiked)
	if sp.PeakQPS() < flat.PeakQPS()+200 {
		t.Fatalf("spikes absent: peak %v vs flat %v", sp.PeakQPS(), flat.PeakQPS())
	}
}

func TestDiurnalDeterministic(t *testing.T) {
	cfg := DiurnalConfig{Seconds: 50, BaseQPS: 100, NoiseFrac: 0.1, Families: fams, Seed: 5}
	a := NewDiurnal(cfg)
	b := NewDiurnal(cfg)
	for ti := range a.Demand {
		for f := range a.Demand[ti] {
			if a.Demand[ti][f] != b.Demand[ti][f] {
				t.Fatal("same seed produced different traces")
			}
		}
	}
}

func TestBursty(t *testing.T) {
	tr := NewMacroBurst(MacroBurstConfig{
		Seconds: 100, LowQPS: 50, HighQPS: 500, PeriodSeconds: 20, Families: fams,
	})
	eq := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !eq(tr.TotalQPS(0), 50) || !eq(tr.TotalQPS(19), 50) {
		t.Fatalf("low period wrong: %v", tr.TotalQPS(0))
	}
	if !eq(tr.TotalQPS(20), 500) || !eq(tr.TotalQPS(39), 500) {
		t.Fatalf("high period wrong: %v", tr.TotalQPS(20))
	}
	if !eq(tr.TotalQPS(40), 50) {
		t.Fatalf("second low period wrong: %v", tr.TotalQPS(40))
	}
}

// TestAdversarialDefaults pins the zero config: 300 s over the zoo's nine
// families, 150 QPS base, and spikes of 3×150 QPS on family 0 for seconds
// [1, 11) of every 30.
func TestAdversarialDefaults(t *testing.T) {
	tr := NewAdversarial(AdversarialConfig{})
	if tr.Seconds() != 300 || len(tr.Families) != 9 {
		t.Fatalf("%d s, %d families", tr.Seconds(), len(tr.Families))
	}
	eq := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for _, sec := range []int{0, 11, 29, 30, 299} {
		if !eq(tr.TotalQPS(sec), 150) {
			t.Fatalf("second %d: %v QPS outside a spike", sec, tr.TotalQPS(sec))
		}
	}
	for _, sec := range []int{1, 10, 31, 271} {
		if !eq(tr.TotalQPS(sec), 600) {
			t.Fatalf("second %d: %v QPS inside a spike", sec, tr.TotalQPS(sec))
		}
	}
}

func TestArrivalsMatchDemand(t *testing.T) {
	tr := NewFlat(fams, []float64{100, 50, 10}, 60)
	rng := numeric.NewRNG(13)
	arr := tr.Arrivals(rng)
	want := 160.0 * 60
	if math.Abs(float64(len(arr))-want) > 0.05*want {
		t.Fatalf("arrivals %d, want ~%v", len(arr), want)
	}
	// Sorted by time, inside the trace window, valid family indices.
	for i := 1; i < len(arr); i++ {
		if arr[i].Time < arr[i-1].Time {
			t.Fatal("arrivals not sorted")
		}
	}
	counts := make([]int, 3)
	for _, a := range arr {
		if a.Time < 0 || a.Time >= 60*time.Second {
			t.Fatalf("arrival outside window: %v", a.Time)
		}
		if a.Family < 0 || a.Family >= 3 {
			t.Fatalf("bad family %d", a.Family)
		}
		counts[a.Family]++
	}
	for f, rate := range []float64{100, 50, 10} {
		want := rate * 60
		if math.Abs(float64(counts[f])-want) > 0.1*want {
			t.Errorf("family %d count %d, want ~%v", f, counts[f], want)
		}
	}
}

func TestInterArrivalUniform(t *testing.T) {
	rng := numeric.NewRNG(17)
	times := InterArrivalTimes(Uniform, 100, time.Second, rng)
	if len(times) != 99 { // arrivals strictly inside (0, 1s)
		t.Fatalf("uniform count %d, want 99", len(times))
	}
	gap := times[1] - times[0]
	for i := 2; i < len(times); i++ {
		d := times[i] - times[i-1]
		if d < gap-2*time.Nanosecond || d > gap+2*time.Nanosecond {
			t.Fatalf("uniform gaps differ: %v vs %v", d, gap)
		}
	}
}

func TestInterArrivalRatesMatch(t *testing.T) {
	rng := numeric.NewRNG(19)
	const rate = 200.0
	const dur = 50 * time.Second
	for _, p := range []ArrivalProcess{Uniform, PoissonProcess, GammaProcess} {
		times := InterArrivalTimes(p, rate, dur, rng)
		want := rate * dur.Seconds()
		if math.Abs(float64(len(times))-want) > 0.15*want {
			t.Errorf("%v: %d arrivals, want ~%v", p, len(times), want)
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("%v: times not monotone", p)
			}
		}
	}
}

func TestGammaIsBurstier(t *testing.T) {
	rng := numeric.NewRNG(23)
	cv := func(p ArrivalProcess) float64 {
		times := InterArrivalTimes(p, 100, 100*time.Second, rng)
		gaps := make([]float64, len(times)-1)
		for i := range gaps {
			gaps[i] = (times[i+1] - times[i]).Seconds()
		}
		mean, ss := numeric.Mean(gaps), 0.0
		for _, g := range gaps {
			ss += (g - mean) * (g - mean)
		}
		return math.Sqrt(ss/float64(len(gaps)-1)) / mean
	}
	u, po, g := cv(Uniform), cv(PoissonProcess), cv(GammaProcess)
	if !(u < 0.01 && po > 0.8 && po < 1.2 && g > 2) {
		t.Fatalf("CVs: uniform %v, poisson %v, gamma %v", u, po, g)
	}
}

func TestInterArrivalZeroRate(t *testing.T) {
	if InterArrivalTimes(PoissonProcess, 0, time.Second, numeric.NewRNG(1)) != nil {
		t.Fatal("zero rate must produce no arrivals")
	}
}

func TestSingleFamilyArrivals(t *testing.T) {
	times := []time.Duration{time.Millisecond, time.Second}
	arr := SingleFamilyArrivals(times, 4)
	if len(arr) != 2 || arr[0].Family != 4 || arr[1].Time != time.Second {
		t.Fatalf("bad arrivals %v", arr)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := NewDiurnal(DiurnalConfig{Seconds: 20, BaseQPS: 123.5, NoiseFrac: 0.1, Families: fams, Seed: 9})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds() != tr.Seconds() || len(got.Families) != len(tr.Families) {
		t.Fatalf("shape changed: %d/%d", got.Seconds(), len(got.Families))
	}
	for ti := range tr.Demand {
		for f := range tr.Demand[ti] {
			if got.Demand[ti][f] != tr.Demand[ti][f] {
				t.Fatalf("value changed at (%d,%d)", ti, f)
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus,a\n1,2\n",
		"second,resnet\n0,notanumber\n",
		"second,resnet\n0,-5\n",
		"second,resnet\n0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
