package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"proteus/internal/numeric"
)

// pinnedRand seeds quick.Check, whose default generator is clock-seeded, so
// that every run draws the same inputs and a CI failure can be replayed.
func pinnedRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func randomTrace(seed uint64) *Trace {
	rng := numeric.NewRNG(seed)
	nf := 1 + rng.Intn(5)
	fams := make([]string, nf)
	for i := range fams {
		fams[i] = string(rune('a' + i))
	}
	tr := &Trace{Families: fams}
	secs := 1 + rng.Intn(120)
	for t := 0; t < secs; t++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.Float64() * 200
		}
		tr.Demand = append(tr.Demand, row)
	}
	return tr
}

// TestPropertyCSVRoundTrip checks serialization fidelity on random traces.
func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed)
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if got.Seconds() != tr.Seconds() || len(got.Families) != len(tr.Families) {
			return false
		}
		for ti := range tr.Demand {
			for fi := range tr.Demand[ti] {
				if got.Demand[ti][fi] != tr.Demand[ti][fi] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyArrivalsSortedAndInWindow checks the arrival expansion
// invariants for random traces.
func TestPropertyArrivalsSortedAndInWindow(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed)
		arr := tr.Arrivals(numeric.NewRNG(seed ^ 0x5f5f))
		end := time.Duration(tr.Seconds()) * time.Second
		prev := time.Duration(-1)
		for _, a := range arr {
			if a.Time < prev || a.Time < 0 || a.Time >= end {
				return false
			}
			if a.Family < 0 || a.Family >= len(tr.Families) {
				return false
			}
			prev = a.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInterArrivalMeanRate checks that every arrival process hits
// the requested mean rate within sampling error. The Gamma process's count
// has a relative standard deviation of about 6 % here, so a clock-seeded
// draw would miss the 25 % band in about 1 of 1 300 Gamma cases with the
// generator unbiased; the inputs are pinned.
func TestPropertyInterArrivalMeanRate(t *testing.T) {
	f := func(seed uint64, proc8 uint8) bool {
		p := []ArrivalProcess{Uniform, PoissonProcess, GammaProcess}[int(proc8)%3]
		rng := numeric.NewRNG(seed)
		rate := 50 + float64(seed%200)
		d := 40 * time.Second
		times := InterArrivalTimes(p, rate, d, rng)
		want := rate * d.Seconds()
		// Gamma(0.05) has wild variance; allow generous tolerance.
		tol := 0.25 * want
		return math.Abs(float64(len(times))-want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: pinnedRand()}); err != nil {
		t.Fatal(err)
	}
}
