package trace

import (
	"math"
	"slices"
	"testing"
	"time"

	"proteus/internal/numeric"
)

// referenceArrivals is the oracle for Arrivals: the same generation loop,
// then one stable sort of everything by time.
func referenceArrivals(tr *Trace, rng *numeric.RNG) []Arrival {
	var out []Arrival
	for t, row := range tr.Demand {
		for f, rate := range row {
			n := rng.Poisson(rate)
			for i := 0; i < n; i++ {
				at := time.Duration((float64(t) + rng.Float64()) * float64(time.Second))
				out = append(out, Arrival{Time: at, Family: f})
			}
		}
	}
	slices.SortStableFunc(out, ByTime)
	return out
}

// fuzzTrace decodes a trace shape: 1–30 seconds, 1–9 families, and one rate
// per bin taken from rates in turn (every bin zero when rates is empty). A
// rate byte r reads as 0 for r = 0, r/8 QPS for 1–127 (fractional rates
// under 16), 5·(r−128)+0.5 QPS for 128–247, and 500·(r−247) QPS for
// 248–255, dense bins of 500 to 4 000.
func fuzzTrace(secs, fams uint8, rates []byte) *Trace {
	nf := 1 + int(fams)%9
	tr := &Trace{Families: make([]string, nf)}
	for f := range tr.Families {
		tr.Families[f] = string(rune('a' + f))
	}
	i := 0
	for t := 0; t < 1+int(secs)%30; t++ {
		row := make([]float64, nf)
		for f := range row {
			if len(rates) == 0 {
				continue
			}
			r := rates[i%len(rates)]
			i++
			switch {
			case r == 0:
			case r < 128:
				row[f] = float64(r) / 8
			case r < 248:
				row[f] = 5*float64(r-128) + 0.5
			default:
				row[f] = 500 * float64(r-247)
			}
		}
		tr.Demand = append(tr.Demand, row)
	}
	return tr
}

// FuzzArrivalsAgainstStableSort holds Arrivals' per-second ordering to one
// stable sort of the generation order, element for element. The seeds in
// testdata/fuzz include a zero-demand trace and a single dense second.
func FuzzArrivalsAgainstStableSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, secs, fams uint8, rates []byte) {
		tr := fuzzTrace(secs, fams, rates)
		got := tr.Arrivals(numeric.NewRNG(seed))
		want := referenceArrivals(tr, numeric.NewRNG(seed))
		if len(got) != len(want) {
			t.Fatalf("%d arrivals, oracle %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("arrival %d is %+v, oracle %+v", i, got[i], want[i])
			}
		}
	})
}

// TestAppendSecondEdgeCases calls the per-second helper directly on the
// shapes a generated second rarely has: empty and single bins, offsets of 0
// and exactly 1 s, and equal times, which must keep input order.
func TestAppendSecondEdgeCases(t *testing.T) {
	const start = 1000 * time.Second
	// (t+u)·1e9 with u just under 1 rounds up to (t+1) s at t = 1000.
	top := time.Duration((1000 + math.Nextafter(1, 0)) * float64(time.Second))
	if top != start+time.Second {
		t.Fatalf("the rounding case is gone: %v", top-start)
	}
	at := func(off time.Duration, f int) Arrival { return Arrival{Time: start + off, Family: f} }
	cases := []struct {
		name string
		bin  []Arrival
	}{
		{"empty", nil},
		{"one", []Arrival{at(300*time.Millisecond, 4)}},
		{"offsets 0 and 1 s", []Arrival{at(time.Second, 0), at(0, 1), at(500*time.Millisecond, 2)}},
		{"rounded up to 1 s", []Arrival{{Time: top, Family: 0}, at(time.Second-1, 1), at(0, 2)}},
		{"ties at 1 s", []Arrival{at(time.Second, 0), at(time.Second-1, 1), at(time.Second, 2), at(time.Second, 3)}},
		{"ties keep input order", []Arrival{
			at(3, 2), at(1, 0), at(3, 0), at(1, 5), at(3, 1), at(999*time.Millisecond, 7), at(1, 3),
		}},
	}
	prefix := []Arrival{{Time: 5 * time.Second, Family: 8}}
	// One counts slice for every case, starting too long, so both the grow
	// and the clear path run.
	counts := make([]int, 64)
	for i := range counts {
		counts[i] = 99
	}
	for _, tc := range cases {
		want := append(slices.Clone(prefix), tc.bin...)
		slices.SortStableFunc(want[len(prefix):], ByTime)
		bin := slices.Clone(tc.bin)
		var got []Arrival
		got, counts = appendSecond(slices.Clone(prefix), bin, start, counts)
		if !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
		if !slices.Equal(bin, tc.bin) {
			t.Errorf("%s: the bin changed", tc.name)
		}
	}
}

// TestAppendSecondLinear orders one dense second of 200 000 arrivals of one
// family. The insertion pass moves an element once per inversion inside its
// bucket; uniform offsets leave about n/4 of them, where one sort by
// insertion alone would make n²/4.
func TestAppendSecondLinear(t *testing.T) {
	const n = 200_000
	const start = 1799 * time.Second
	rng := numeric.NewRNG(1)
	bin := make([]Arrival, n)
	for i := range bin {
		bin[i] = Arrival{Time: time.Duration((1799 + rng.Float64()) * float64(time.Second))}
	}
	buckets := make([][]time.Duration, n)
	for _, a := range bin {
		k := min(int(uint64(a.Time-start)*n/uint64(time.Second)), n-1)
		buckets[k] = append(buckets[k], a.Time)
	}
	moves := 0
	for _, b := range buckets {
		for i := range b {
			for j := i + 1; j < len(b); j++ {
				if b[j] < b[i] {
					moves++
				}
			}
		}
	}
	if moves > n {
		t.Errorf("%d moves for %d arrivals", moves, n)
	}

	t0 := time.Now()
	got, _ := appendSecond(nil, bin, start, nil)
	elapsed := time.Since(t0)
	want := slices.Clone(bin)
	slices.SortStableFunc(want, ByTime)
	if !slices.Equal(got, want) {
		t.Fatal("a dense second is out of order")
	}
	// Linear work takes milliseconds even under -race; quadratic, minutes.
	if elapsed > 2*time.Second {
		t.Errorf("%v for one second of %d arrivals", elapsed, n)
	}
	t.Logf("%d insertion moves, %v", moves, elapsed)
}
