package allocator

import (
	"math"
	"sort"
)

// searchSpace is the aggregated model over device counts per (group,
// variant) pair with accuracy-first demand filling. The DP (exact.go)
// solves it within its work limit; the local search explores it for the
// churn-control plan, the back-off's short families and, past the work
// limit, the plan itself (search).
type searchSpace struct {
	pairs  []aggPair
	refs   []VariantRef
	demand []float64
	// prev[i] is the previous plan's device count for pair i and switchCost
	// the objective penalty per newly loaded device (0 disables). A plan
	// that hosts more devices of a variant than before pays for the loads:
	// each load takes the device offline for the load delay, a real
	// throughput cost the pure §4 objective ignores.
	prev       []int
	switchCost []float64
	// groupSize[g] is N_g in the slot constraint Σ n <= N_g over the pairs
	// of group g (pairs[i].g).
	groupSize []int
	// order sorts pair indices by descending variant accuracy.
	order []int
	// pairsByGroup indexes pairs per group.
	pairsByGroup [][]int
}

func newSearchSpace(groups []groupInfo, pairs []aggPair, refs []VariantRef, demand []float64) *searchSpace {
	s := &searchSpace{pairs: pairs, refs: refs, demand: demand}
	s.groupSize = make([]int, len(groups))
	s.pairsByGroup = make([][]int, len(groups))
	for g := range groups {
		s.groupSize[g] = groups[g].size
	}
	for i, pr := range pairs {
		s.pairsByGroup[pr.g] = append(s.pairsByGroup[pr.g], i)
	}
	s.order = make([]int, len(pairs))
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return refs[pairs[s.order[a]].r].Variant.Accuracy > refs[pairs[s.order[b]].r].Variant.Accuracy
	})
	return s
}

// groupInfo is the slice of group metadata the search needs.
type groupInfo struct{ size int }

// shortfallPenalty prices unserved demand far above any accuracy gain so
// the search always prefers feasibility.
const shortfallPenalty = 1e7

// objective evaluates counts by filling each family's demand with the most
// accurate capacity first, charging switch costs for devices loaded beyond
// the previous plan. It returns the penalized objective and whether all
// demand is served.
func (s *searchSpace) objective(counts []int) (float64, bool) {
	served, remaining := s.fill(counts)
	obj := 0.0
	for _, i := range s.order {
		obj += served[i] * s.refs[s.pairs[i].r].Variant.Accuracy
	}
	if s.prev != nil && s.switchCost != nil {
		for i, c := range counts {
			if loads := c - s.prev[i]; loads > 0 {
				obj -= float64(loads) * s.switchCost[i]
			}
		}
	}
	feasible := true
	for _, r := range remaining {
		if r > 1e-9 {
			obj -= shortfallPenalty * r
			feasible = false
		}
	}
	return obj, feasible
}

// improve hill-climbs from counts with two move kinds — add a device to a
// spare slot, and move a device between variants within its group — until
// no single move improves the objective or maxRounds passes elapse. It
// mutates and returns counts.
//
// The objective splits by family (exact.go), so improve keeps one term per
// family and prices a move by re-filling only the families whose counts it
// changes: one for an addition, one or two for a reassignment. A move is
// taken when the summed change exceeds 1e-9; of the additions into a group,
// the first strictly best.
func (s *searchSpace) improve(counts []int, maxRounds int) []int {
	famPairs := s.familyPairs()
	term := make([]float64, len(famPairs))
	for q, pairs := range famPairs {
		term[q] = s.familyTerm(q, pairs, counts)
	}
	used := make([]int, len(s.groupSize))
	for i, c := range counts {
		used[s.pairs[i].g] += c
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Additions into spare slots.
		for g, slots := range s.groupSize {
			for used[g] < slots {
				bestJ, bestGain, bestTerm := -1, 0.0, 0.0
				for _, j := range s.pairsByGroup[g] {
					q := s.familyOf(j)
					counts[j]++
					t := s.familyTerm(q, famPairs[q], counts)
					counts[j]--
					if gain := t - term[q]; gain > bestGain+1e-9 {
						bestJ, bestGain, bestTerm = j, gain, t
					}
				}
				if bestJ < 0 {
					break
				}
				counts[bestJ]++
				used[g]++
				term[s.familyOf(bestJ)] = bestTerm
				improved = true
			}
		}
		// Intra-group reassignments.
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			g, qi := s.pairs[i].g, s.familyOf(i)
			for _, j := range s.pairsByGroup[g] {
				if j == i || counts[i] == 0 {
					continue
				}
				qj := s.familyOf(j)
				counts[i]--
				counts[j]++
				ti := s.familyTerm(qi, famPairs[qi], counts)
				gain, tj := ti-term[qi], ti
				if qj != qi {
					tj = s.familyTerm(qj, famPairs[qj], counts)
					gain += tj - term[qj]
				}
				if gain > 1e-9 {
					term[qi], term[qj] = ti, tj
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

// kept is the previous plan evolved by the local search under the step's
// demand, with its objective: nil when there is no previous plan or the
// evolved one leaves demand unserved. It is the churn-control candidate
// beside the DP's optimum and one of search's two starts.
func (s *searchSpace) kept() ([]int, float64) {
	if s.prev == nil {
		return nil, 0
	}
	counts := s.improve(append([]int(nil), s.prev...), 50)
	obj, feasible := s.objective(counts)
	if !feasible {
		return nil, 0
	}
	return counts, obj
}

// search plans shapes past the DP's work limit: the better of kept and of
// the local search from no devices (kept on a tie), with its objective.
// When neither serves the demand, counts is nil and short holds the
// families the search from no devices leaves short, for the back-off.
func (s *searchSpace) search() (counts []int, obj float64, short []bool) {
	counts, obj = s.kept()
	fresh := s.improve(make([]int, len(s.pairs)), 50)
	if o, feasible := s.objective(fresh); feasible && (counts == nil || o > obj) {
		return fresh, o, nil
	}
	if counts == nil {
		return nil, 0, s.shortfall(fresh)
	}
	return counts, obj, nil
}

// familyOf returns pair i's family.
func (s *searchSpace) familyOf(i int) int { return s.refs[s.pairs[i].r].Family }

// familyTerm is family q's share of objective: its demand filled over its
// pairs (in fill order) by counts, less its pairs' switch costs and its
// shortfall penalty.
func (s *searchSpace) familyTerm(q int, pairs, counts []int) float64 {
	remaining := s.demand[q]
	obj := 0.0
	for _, i := range pairs {
		c := counts[i]
		if c == 0 {
			continue
		}
		take := math.Min(remaining, s.pairs[i].peak*float64(c))
		obj += take * s.refs[s.pairs[i].r].Variant.Accuracy
		remaining -= take
		if s.prev != nil && s.switchCost != nil {
			if loads := c - s.prev[i]; loads > 0 {
				obj -= float64(loads) * s.switchCost[i]
			}
		}
	}
	if remaining > 1e-9 {
		obj -= shortfallPenalty * remaining
	}
	return obj
}

// fill is the accuracy-first fill of counts over s.order: the QPS each pair
// serves and the demand each family has left. A pair with no devices serves
// min(remaining, 0) = 0.
func (s *searchSpace) fill(counts []int) (served, remaining []float64) {
	served = make([]float64, len(s.pairs))
	remaining = append([]float64(nil), s.demand...)
	for _, i := range s.order {
		pr := s.pairs[i]
		q := s.refs[pr.r].Family
		served[i] = math.Min(remaining[q], pr.peak*float64(counts[i]))
		remaining[q] -= served[i]
	}
	return served, remaining
}

// shortfall reports, per family, whether the counts leave demand unserved.
func (s *searchSpace) shortfall(counts []int) []bool {
	_, remaining := s.fill(counts)
	out := make([]bool, len(remaining))
	for q, r := range remaining {
		out[q] = r > 1e-9
	}
	return out
}
