package allocator

import (
	"slices"
	"sort"

	"proteus/internal/cluster"
	"proteus/internal/profiles"
)

// InfaasAccuracy is the INFaaS-Accuracy baseline (§6.1.1): INFaaS's greedy
// model-selection/placement heuristic with the objective and constraint
// swapped so it minimizes accuracy drop under the fixed cluster budget
// ("infaas_v2" in the artifact configs). It is dynamic — it re-runs on
// demand changes — but, being greedy, it gets stuck in local optima the
// MILP avoids (§6.2).
//
// The heuristic, per family in descending-demand order: repeatedly commit
// the most accurate (device, variant) pair whose peak throughput covers the
// family's remaining demand; if no single pair covers it, commit the pair
// with the highest peak to close the gap fastest. Leftover devices are then
// used to upgrade the family with the largest demand-weighted accuracy
// deficit.
type InfaasAccuracy struct{}

// NewInfaasAccuracy returns the INFaaS-Accuracy baseline allocator.
func NewInfaasAccuracy() *InfaasAccuracy { return &InfaasAccuracy{} }

// Name implements Allocator.
func (*InfaasAccuracy) Name() string { return "infaas_v2" }

// Dynamic implements Allocator.
func (*InfaasAccuracy) Dynamic() bool { return true }

// Features implements Allocator.
func (*InfaasAccuracy) Features() Features {
	return Features{DynamicPlacement: true, DynamicSelection: true, AccuracyScaling: true, Method: "Heuristic"}
}

// Allocate implements Allocator.
func (g *InfaasAccuracy) Allocate(in *Input) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	start := wallNow()
	alloc := NewAllocation(in)
	refs := in.Variants()
	peaks := newPeakTable(in, refs)
	// hosted[d] indexes refs for the variant placed on device d, -1 for none.
	hosted := make([]int, in.Cluster.Size())
	for d := range hosted {
		hosted[d] = -1
	}

	free := make(map[int]bool, in.Cluster.Size())
	for _, d := range in.Cluster.HealthyDevices() {
		free[d.ID] = true
	}

	// Families by descending demand; ties by index for determinism.
	order := make([]int, len(in.Families))
	for q := range order {
		order[q] = q
	}
	sort.SliceStable(order, func(i, j int) bool {
		return in.Demand[order[i]] > in.Demand[order[j]]
	})

	capacity := make([]float64, len(in.Families)) // provisioned QPS per family
	for _, q := range order {
		remaining := in.Demand[q]
		for remaining > 1e-9 {
			d, r := g.bestPair(in, refs, peaks, free, q, remaining)
			if d < 0 {
				break // no devices or no feasible variant left
			}
			ref := refs[r]
			alloc.Hosted[d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
			hosted[d] = r
			free[d] = false
			p := peaks.of(d, r)
			capacity[q] += p
			remaining -= p
		}
	}

	// Upgrade pass: spend leftover devices on the family with the largest
	// demand-weighted accuracy deficit, hosting its most accurate feasible
	// variant on each.
	for {
		d := -1
		for _, dev := range in.Cluster.Devices() {
			if free[dev.ID] {
				d = dev.ID
				break
			}
		}
		if d < 0 {
			break
		}
		q := g.neediestFamily(in, refs, peaks, hosted, capacity)
		r := g.mostAccurateFeasible(refs, peaks, d, q)
		if r < 0 {
			free[d] = false // nothing fits this device at all
			continue
		}
		ref := refs[r]
		alloc.Hosted[d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
		hosted[d] = r
		capacity[q] += peaks.of(d, r)
		free[d] = false
	}

	fillRoutingByAccuracy(in, alloc)
	alloc.PredictedAccuracy = alloc.EffectiveAccuracy(in)
	alloc.SolveTime = stopwatch(start)
	return alloc, nil
}

// peakTable memoises Input.Peak for one Allocate call: a healthy device's
// peak depends only on its spec and the variant, so each (spec, variant) pair
// is computed once, while health is still asked per device.
type peakTable struct {
	in   *Input
	spec []int       // spec index of each device
	peak [][]float64 // [spec index][index into the call's refs]
}

func newPeakTable(in *Input, refs []VariantRef) *peakTable {
	t := &peakTable{in: in, spec: make([]int, in.Cluster.Size())}
	var specs []cluster.TypeSpec
	for _, dev := range in.Cluster.Devices() {
		k := slices.Index(specs, dev.Spec)
		if k < 0 {
			k = len(specs)
			specs = append(specs, dev.Spec)
			row := make([]float64, len(refs))
			for r, ref := range refs {
				row[r] = profiles.EffectiveCapacity(dev.Spec, ref.Variant, in.SLOs[ref.Family])
			}
			t.peak = append(t.peak, row)
		}
		t.spec[dev.ID] = k
	}
	return t
}

// of is Input.Peak of refs[r] on device d.
func (t *peakTable) of(d, r int) float64 {
	if !t.in.Cluster.Healthy(d) {
		return 0
	}
	return t.peak[t.spec[d]][r]
}

// bestPair picks the greedy (device, variantRef) choice for family q.
func (g *InfaasAccuracy) bestPair(in *Input, refs []VariantRef, peaks *peakTable, free map[int]bool, q int, remaining float64) (int, int) {
	bestD, bestR := -1, -1
	bestCovers := false
	var bestAcc, bestPeak float64
	for _, dev := range in.Cluster.Devices() {
		if !free[dev.ID] {
			continue
		}
		for r, ref := range refs {
			if ref.Family != q {
				continue
			}
			p := peaks.of(dev.ID, r)
			if p <= 0 {
				continue
			}
			covers := p >= remaining
			better := false
			switch {
			case covers && !bestCovers:
				better = true
			case covers == bestCovers && covers:
				// Most accurate pair that covers; break ties with the
				// smaller peak to avoid wasting fast devices.
				better = ref.Variant.Accuracy > bestAcc ||
					(ref.Variant.Accuracy == bestAcc && p < bestPeak)
			case covers == bestCovers && !covers:
				// Nothing covers: chase throughput, then accuracy.
				better = p > bestPeak ||
					(p == bestPeak && ref.Variant.Accuracy > bestAcc)
			}
			if better {
				bestD, bestR = dev.ID, r
				bestCovers, bestAcc, bestPeak = covers, ref.Variant.Accuracy, p
			}
		}
	}
	return bestD, bestR
}

// neediestFamily returns the family with the largest demand-weighted
// accuracy deficit in the current plan.
func (g *InfaasAccuracy) neediestFamily(in *Input, refs []VariantRef, peaks *peakTable, hosted []int, capacity []float64) int {
	best, bestScore := 0, -1.0
	for q := range in.Families {
		top := in.Families[q].MostAccurate().Accuracy
		// Current capacity-weighted accuracy for the family.
		num, den := 0.0, 0.0
		for d, r := range hosted {
			if r < 0 || refs[r].Family != q {
				continue
			}
			p := peaks.of(d, r)
			num += p * refs[r].Variant.Accuracy
			den += p
		}
		deficit := top
		if den > 0 {
			deficit = top - num/den
		}
		score := deficit * (in.Demand[q] + 1)
		if capacity[q] < in.Demand[q] {
			// Families still under-provisioned take absolute priority.
			score += 1e9 * (in.Demand[q] - capacity[q])
		}
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}

func (g *InfaasAccuracy) mostAccurateFeasible(refs []VariantRef, peaks *peakTable, d, q int) int {
	best, bestAcc := -1, -1.0
	for r, ref := range refs {
		if ref.Family != q {
			continue
		}
		if peaks.of(d, r) <= 0 {
			continue
		}
		if ref.Variant.Accuracy > bestAcc {
			best, bestAcc = r, ref.Variant.Accuracy
		}
	}
	return best
}

// fillRoutingByAccuracy computes the query assignment for a fixed placement
// by filling the most accurate hosting devices to capacity first. Routing
// rows sum to min(1, capacity/demand); ServedQPS records the provisioned
// rate.
func fillRoutingByAccuracy(in *Input, alloc *Allocation) {
	for q := range in.Families {
		type host struct {
			d    int
			acc  float64
			peak float64
		}
		var hosts []host
		for d, ref := range alloc.Hosted {
			if ref == nil || ref.Family != q {
				continue
			}
			hosts = append(hosts, host{d: d, acc: ref.Variant.Accuracy, peak: in.Peak(in.Cluster.Device(d), *ref)})
		}
		sort.SliceStable(hosts, func(i, j int) bool { return hosts[i].acc > hosts[j].acc })
		demand := in.Demand[q]
		if demand <= 0 {
			// No demand: spread nominal zero routing; leave row empty.
			alloc.ServedQPS[q] = 0
			continue
		}
		remaining := demand
		served := 0.0
		for _, h := range hosts {
			if remaining <= 0 {
				break
			}
			take := h.peak
			if take > remaining {
				take = remaining
			}
			alloc.Routing[q][h.d] = take / demand
			served += take
			remaining -= take
		}
		alloc.ServedQPS[q] = served
	}
}
