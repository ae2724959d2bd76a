package profiles

import (
	"testing"
	"testing/quick"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/numeric"
)

func randomVariantAndSpec(seed uint64) (models.Variant, cluster.TypeSpec) {
	rng := numeric.NewRNG(seed)
	reg := models.MustRegistry(models.Zoo())
	all := reg.AllVariants()
	v := all[rng.Intn(len(all))]
	types := cluster.KnownTypes()
	spec := cluster.Spec(types[rng.Intn(len(types))])
	return v, spec
}

// TestPropertyMaxBatchIsMaximal checks the defining property of the §4
// batch-size bound: latency(MaxBatch) fits slo/2 and memory, while
// MaxBatch+1 violates one of the two.
func TestPropertyMaxBatchIsMaximal(t *testing.T) {
	f := func(seed uint64, mult8 uint8) bool {
		v, spec := randomVariantAndSpec(seed)
		mult := 1 + float64(mult8%30)/10
		var fam models.Family
		for _, ff := range models.Zoo() {
			if ff.Name == v.Family {
				fam = ff
			}
		}
		slo := FamilySLO(fam, mult)
		b := MaxBatch(spec, v, slo)
		if b < 0 {
			return false
		}
		if b == 0 {
			// Infeasible: either batch 1 exceeds slo/2 or weights don't fit.
			return Latency(spec, v, 1) > slo/2 || !Fits(spec, v, 1)
		}
		// MaxSLOBatch rounds up by 1e-4 of a batch item (its boundary
		// epsilon), so the bound may pass slo/2 by that share of one item's
		// time on top of the microsecond of truncation: 1.4 µs for
		// bert-small on a GTX 1080 Ti at 1.9x, the one of the 4 590
		// (variant, device, multiplier) inputs a bare microsecond refuses —
		// about one run in ten drew it.
		tol := time.Microsecond + (Latency(spec, v, 2)-Latency(spec, v, 1))/10000
		if Latency(spec, v, b) > slo/2+tol || !Fits(spec, v, b) {
			return false
		}
		return Latency(spec, v, b+1) > slo/2-tol || !Fits(spec, v, b+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEffectiveCapacityBelowPeak checks the derating invariants.
func TestPropertyEffectiveCapacityBelowPeak(t *testing.T) {
	f := func(seed uint64) bool {
		v, spec := randomVariantAndSpec(seed)
		var fam models.Family
		for _, ff := range models.Zoo() {
			if ff.Name == v.Family {
				fam = ff
			}
		}
		slo := FamilySLO(fam, 2)
		peak := PeakThroughput(spec, v, slo)
		eff := EffectiveCapacity(spec, v, slo)
		if peak == 0 {
			return eff == 0
		}
		return eff > 0 && eff <= 0.85*peak+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLatencyMonotonicity checks latency grows with batch size and
// shrinks with faster devices.
func TestPropertyLatencyMonotonicity(t *testing.T) {
	f := func(seed uint64, b8 uint8) bool {
		v, spec := randomVariantAndSpec(seed)
		b := 1 + int(b8%63)
		if Latency(spec, v, b+1) <= Latency(spec, v, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
