package allocator

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
)

// aggregate builds one step's model outside Allocate, with the allocator's
// variant filter evaluated as Allocate evaluates it.
func (m *MILP) aggregate(in *Input, demand []float64) (*aggModel, []bool) {
	return m.model(in, demand, m.admitted(in))
}

// referenceImprove is improve's oracle: the same moves in the same order,
// each priced by the whole objective (every family re-filled) instead of by
// the terms of the families it changes. improve must return the same
// counts.
func (s *searchSpace) referenceImprove(counts []int, maxRounds int) []int {
	obj, _ := s.objective(counts)
	used := make([]int, len(s.groupSize))
	for i, c := range counts {
		used[s.pairs[i].g] += c
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Additions into spare slots.
		for g, slots := range s.groupSize {
			for used[g] < slots {
				bestJ, bestObj := -1, obj
				for _, j := range s.pairsByGroup[g] {
					counts[j]++
					if o, _ := s.objective(counts); o > bestObj+1e-9 {
						bestJ, bestObj = j, o
					}
					counts[j]--
				}
				if bestJ < 0 {
					break
				}
				counts[bestJ]++
				used[g]++
				obj = bestObj
				improved = true
			}
		}
		// Intra-group reassignments.
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			g := s.pairs[i].g
			for _, j := range s.pairsByGroup[g] {
				if j == i || counts[i] == 0 {
					continue
				}
				counts[i]--
				counts[j]++
				if o, _ := s.objective(counts); o > obj+1e-9 {
					obj = o
					improved = true
				} else {
					counts[i]++
					counts[j]--
				}
			}
		}
		if !improved {
			break
		}
	}
	return counts
}

// matchImprove runs improve and referenceImprove from start and fails t,
// naming both objectives, when they return different counts.
func matchImprove(t *testing.T, s *searchSpace, start []int, maxRounds int, what string) {
	t.Helper()
	got := s.improve(slices.Clone(start), maxRounds)
	want := s.referenceImprove(slices.Clone(start), maxRounds)
	if !slices.Equal(got, want) {
		gotObj, _ := s.objective(got)
		wantObj, _ := s.objective(want)
		t.Fatalf("%s: improve returned %v (objective %.17g), reference %v (objective %.17g)",
			what, got, gotObj, want, wantObj)
	}
}

// TestImproveMatchesReference holds improve to referenceImprove on the
// benchmark's shape: every period of chained replays (seeds 1–15; 1–3 for
// Clipper-HA and w/o-MS, which back off ≈ 260 times a period) for the
// allocators the DP serves, at 0.5, 1, 2 and 4 times the period's demand,
// starting from the previous plan (the churn-control search) and from
// nothing (the back-off's shortfall and the plan past the work limit).
func TestImproveMatchesReference(t *testing.T) {
	searches := 0
	for _, tc := range []struct {
		name  string
		seeds uint64
	}{
		{"ilp", 15}, {"clipper-ht", 15}, {"clipper-ha", 3}, {"proteus-wo-ms", 3}, {"proteus-wo-qa", 15},
	} {
		for seed := uint64(1); seed <= tc.seeds; seed++ {
			m := dpMILP(t, tc.name, nil)
			for p, in := range replayInputs(seed) {
				for _, scale := range []float64{0.5, 1, 2, 4} {
					demand := flooredDemand(in)
					for q := range demand {
						demand[q] *= scale
					}
					a, _ := m.aggregate(in, demand)
					if a == nil {
						continue
					}
					what := fmt.Sprintf("%s seed %d period %d demand ×%g", tc.name, seed, p, scale)
					if a.space.prev != nil {
						matchImprove(t, a.space, a.space.prev, 50, what+" from the previous plan")
						searches++
					}
					matchImprove(t, a.space, make([]int, len(a.pairs)), 50, what+" from zero")
					searches++
				}
				if _, err := m.Allocate(in); err != nil {
					t.Fatalf("%s seed %d period %d: %v", tc.name, seed, p, err)
				}
			}
		}
	}
	t.Logf("%d searches match the reference", searches)
	if searches != 3060 {
		t.Errorf("%d searches compared, want 3060", searches)
	}
}

// FuzzImproveAgainstReference holds improve to referenceImprove on
// generated clusters of up to 10/5/5 devices and up to the whole zoo, from
// random start counts. shape's bits choose: a random previous plan (bit 0);
// switch costs off (bit 1); zero demand for every family (bit 2); and the
// start (bits 3–4): random counts under the slots, every slot full, zero,
// or the previous plan (random counts without one). Total demand is
// log-uniform from 25 to 1 600 QPS: about nine in ten starts and half the
// searches' results leave some demand short. `go test` replays
// testdata/fuzz/FuzzImproveAgainstReference; -fuzz explores.
func FuzzImproveAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		rng := numeric.NewRNG(seed)
		types := []cluster.DeviceType{cluster.CPU, cluster.GTX1080Ti, cluster.V100}
		rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
		var counts []cluster.TypeCount
		for g, groups := 0, 1+rng.Intn(3); g < groups; g++ {
			most := 5
			if g == 0 {
				most = 10
			}
			counts = append(counts, cluster.TypeCount{Type: types[g], Count: 1 + rng.Intn(most)})
		}
		zoo := models.Zoo()
		rng.Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
		fams := zoo[:1+rng.Intn(len(zoo))]
		slos := make([]time.Duration, len(fams))
		demand := make([]float64, len(fams))
		load := 25 * math.Pow(64, rng.Float64())
		for q, fam := range fams {
			slos[q] = profiles.FamilySLO(fam, 1.5+2*rng.Float64())
			if shape&4 == 0 {
				demand[q] = load * rng.Float64() / float64(len(fams))
			}
		}
		in := &Input{Cluster: cluster.New(counts), Families: fams, SLOs: slos, Demand: demand}
		refs := in.Variants()
		groups := in.Cluster.GroupByType()
		var pairs []aggPair
		for gi, g := range groups {
			for ri, ref := range refs {
				if peak := peakFor(g.Spec, ref, in); peak > 0 {
					pairs = append(pairs, aggPair{g: gi, r: ri, peak: peak})
				}
			}
		}
		if len(pairs) == 0 {
			return
		}
		ginfos := make([]groupInfo, len(groups))
		for gi := range groups {
			ginfos[gi] = groupInfo{size: len(groups[gi].Devices)}
		}
		s := newSearchSpace(ginfos, pairs, refs, demand)
		// random draws counts that respect the group rows; full fills every
		// slot of every group that has a pair.
		random := func(full bool) []int {
			c := make([]int, len(pairs))
			for g, slots := range s.groupSize {
				for n := 0; n < slots && len(s.pairsByGroup[g]) > 0 && (full || rng.Intn(3) > 0); n++ {
					c[s.pairsByGroup[g][rng.Intn(len(s.pairsByGroup[g]))]]++
				}
			}
			return c
		}
		if shape&1 != 0 {
			s.prev = random(false)
		}
		if shape&2 == 0 {
			s.switchCost = make([]float64, len(pairs))
			for i, pr := range pairs {
				s.switchCost[i] = 0.05 * pr.peak * 100
			}
		}
		var start []int
		switch shape >> 3 & 3 {
		case 0:
			start = random(false)
		case 1:
			start = random(true)
		case 2:
			start = make([]int, len(pairs))
		case 3:
			start = s.prev
			if start == nil {
				start = random(false)
			}
		}
		matchImprove(t, s, start, 1+rng.Intn(50), fmt.Sprintf("seed %d shape %#x", seed, shape))
	})
}

// TestFilterEvaluatedOncePerAllocate counts the variant filter's calls on
// a period that Clipper-HA's filter makes back off many times: Allocate
// evaluates the filter once per variant, whatever the number of back-offs.
func TestFilterEvaluatedOncePerAllocate(t *testing.T) {
	in := replayInputs(7)[0]
	calls := 0
	extreme := extremeVariantFilter(true)
	m := NewMILP(&MILPOptions{Filter: func(ref VariantRef, in *Input) bool {
		calls++
		return extreme(ref, in)
	}})
	for range 2 {
		calls = 0
		plan, err := m.Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.Backoffs < 10 {
			t.Fatalf("%d back-offs, the test needs at least 10", plan.Stats.Backoffs)
		}
		if want := len(in.Variants()); calls != want {
			t.Errorf("%d filter calls over %d back-offs, want one per variant (%d)", calls, plan.Stats.Backoffs, want)
		}
	}
}
