package allocator

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
)

// pinnedRand seeds quick.Check, whose default generator is clock-seeded, so
// that every run draws the same inputs and a CI failure can be replayed.
// Exploring new inputs is the job of lp's FuzzRevisedAgainstTableau.
func pinnedRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// randomInput builds an allocation problem with a random cluster size and
// random demands over a random subset of the zoo.
func randomInput(seed uint64) *Input {
	rng := numeric.NewRNG(seed)
	zoo := models.Zoo()
	rng.Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
	nf := 1 + rng.Intn(4)
	fams := zoo[:nf]
	slos := make([]time.Duration, nf)
	demand := make([]float64, nf)
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 1.5+rng.Float64()*2)
		demand[q] = rng.Float64() * 300
	}
	return &Input{
		Cluster:  cluster.ScaledTestbed(4 + 4*rng.Intn(4)),
		Families: fams,
		SLOs:     slos,
		Demand:   demand,
	}
}

// TestPropertyMILPPlansAreValid checks that every plan the Proteus
// allocator emits satisfies the structural invariants: routing only to
// devices hosting the right family, rows within [0,1], per-device load
// within capacity.
func TestPropertyMILPPlansAreValid(t *testing.T) {
	f := func(seed uint64) bool {
		in := randomInput(seed)
		a := NewMILP(&MILPOptions{TimeLimit: 200 * time.Millisecond, RelGap: 0.02, StallNodes: 300})
		alloc, err := a.Allocate(in)
		if err != nil {
			return false
		}
		if err := alloc.Check(in); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Served never exceeds demand (plus the idle floor).
		for q := range in.Families {
			if alloc.ServedQPS[q] > in.Demand[q]+1e-6 && alloc.ServedQPS[q] > 0.011 {
				return false
			}
		}
		return alloc.DemandScale > 0 && alloc.DemandScale <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: pinnedRand()}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHeuristicPlansAreValid runs the same structural check on the
// INFaaS-Accuracy greedy heuristic.
func TestPropertyHeuristicPlansAreValid(t *testing.T) {
	f := func(seed uint64) bool {
		in := randomInput(seed)
		alloc, err := NewInfaasAccuracy().Allocate(in)
		if err != nil {
			return false
		}
		if err := alloc.Check(in); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: pinnedRand()}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLocalSearchNeverWorsens checks the hill-climbing improver's
// contract: the objective after improve() is never below the start.
func TestPropertyLocalSearchNeverWorsens(t *testing.T) {
	f := func(seed uint64) bool {
		in := randomInput(seed)
		groups := in.Cluster.GroupByType()
		refs := in.Variants()
		var pairs []aggPair
		varID := 0
		for gi := range groups {
			for ri, ref := range refs {
				peak := peakFor(groups[gi].Spec, ref, in)
				if peak <= 0 {
					continue
				}
				pairs = append(pairs, aggPair{g: gi, r: ri, n: varID, w: varID + 1, l: -1, peak: peak})
				varID += 2
			}
		}
		if len(pairs) == 0 {
			return true
		}
		ginfos := make([]groupInfo, len(groups))
		for gi := range groups {
			ginfos[gi] = groupInfo{size: len(groups[gi].Devices)}
		}
		space := newSearchSpace(ginfos, pairs, refs, in.Demand)
		rng := numeric.NewRNG(seed ^ 0xabc)
		counts := make([]int, len(pairs))
		// Random (possibly slot-violating-free) starting counts.
		for gi, g := range ginfos {
			slots := g.size
			for slots > 0 && rng.Float64() < 0.7 {
				var candidates []int
				for i, pr := range pairs {
					if pr.g == gi {
						candidates = append(candidates, i)
					}
				}
				if len(candidates) == 0 {
					break
				}
				counts[candidates[rng.Intn(len(candidates))]]++
				slots--
			}
		}
		before, _ := space.objective(counts)
		improved := space.improve(append([]int(nil), counts...), 20)
		after, _ := space.objective(improved)
		if after < before-1e-6 {
			return false
		}
		// Slot constraints still hold.
		used := make([]int, len(ginfos))
		for i, c := range improved {
			if c < 0 {
				return false
			}
			used[pairs[i].g] += c
		}
		for gi, u := range used {
			if u > ginfos[gi].size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: pinnedRand()}); err != nil {
		t.Fatal(err)
	}
}
