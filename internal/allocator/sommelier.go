package allocator

import (
	"fmt"
)

// Sommelier is the partially dynamic baseline (§6.1.1): its initial
// placement comes from the MILP (the paper extends it the same way), but
// afterwards each device's *family* assignment is frozen — only the variant
// hosted on a device may change over time (per-device model selection, no
// cluster-level placement). This is also the "Proteus w/o MP" ablation
// (§6.5).
type Sommelier struct {
	name    string
	inner   *MILP
	assign  []int // device -> family, -1 idle; fixed after first allocate
	prepped bool
}

// NewSommelier returns the Sommelier baseline allocator.
func NewSommelier(opts *MILPOptions) *Sommelier {
	return &Sommelier{name: "sommelier", inner: NewMILP(opts)}
}

// NewWithoutPlacement returns the "Proteus w/o MP" ablation, which is the
// same algorithm under its ablation name.
func NewWithoutPlacement(opts *MILPOptions) *Sommelier {
	s := NewSommelier(opts)
	s.name = "proteus-wo-mp"
	return s
}

// Name implements Allocator.
func (s *Sommelier) Name() string { return s.name }

// Dynamic implements Allocator.
func (s *Sommelier) Dynamic() bool { return true }

// Features implements Allocator.
func (s *Sommelier) Features() Features {
	return Features{DynamicPlacement: false, DynamicSelection: true, AccuracyScaling: true, Method: "Heuristic"}
}

// Allocate implements Allocator.
func (s *Sommelier) Allocate(in *Input) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !s.prepped {
		initial, err := s.inner.Allocate(in)
		if err != nil {
			return nil, err
		}
		s.assign = make([]int, in.Cluster.Size())
		for d := range s.assign {
			s.assign[d] = -1
			if initial.Hosted[d] != nil {
				s.assign[d] = initial.Hosted[d].Family
			}
		}
		s.prepped = true
		return initial, nil
	}
	if len(s.assign) != in.Cluster.Size() {
		return nil, fmt.Errorf("allocator: sommelier initialized with a different cluster size")
	}

	start := wallNow()
	alloc := NewAllocation(in)
	// Per family: start every assigned device at the most accurate feasible
	// variant, then greedily downgrade the device offering the best
	// capacity-gain per accuracy-point lost until demand is covered.
	for q := range in.Families {
		var devs []int
		for d, fq := range s.assign {
			if fq == q {
				devs = append(devs, d)
			}
		}
		if len(devs) == 0 {
			continue
		}
		chosen := make([]int, len(devs)) // index into family variants, -1 infeasible
		f := in.Families[q]
		capacity := 0.0
		peakOf := func(d, vi int) float64 {
			return in.Peak(in.Cluster.Device(d), VariantRef{Family: q, Variant: f.Variants[vi]})
		}
		for i, d := range devs {
			chosen[i] = -1
			for vi := len(f.Variants) - 1; vi >= 0; vi-- {
				if peakOf(d, vi) > 0 {
					chosen[i] = vi
					break
				}
			}
			if chosen[i] >= 0 {
				capacity += peakOf(d, chosen[i])
			}
		}
		for capacity < in.Demand[q] {
			bestI, bestVi, bestRatio := -1, -1, 0.0
			for i, d := range devs {
				if chosen[i] <= 0 {
					continue // infeasible or already at the least accurate
				}
				cur := peakOf(d, chosen[i])
				curAcc := f.Variants[chosen[i]].Accuracy
				for vi := chosen[i] - 1; vi >= 0; vi-- {
					p := peakOf(d, vi)
					if p <= cur {
						continue
					}
					lost := curAcc - f.Variants[vi].Accuracy
					if lost <= 0 {
						lost = 1e-9
					}
					ratio := (p - cur) / lost
					if ratio > bestRatio {
						bestI, bestVi, bestRatio = i, vi, ratio
					}
				}
			}
			if bestI < 0 {
				break // fully downgraded, still short: plan sheds load
			}
			capacity -= peakOf(devs[bestI], chosen[bestI])
			chosen[bestI] = bestVi
			capacity += peakOf(devs[bestI], bestVi)
		}
		for i, d := range devs {
			if chosen[i] < 0 {
				continue
			}
			alloc.Hosted[d] = &VariantRef{Family: q, Variant: f.Variants[chosen[i]]}
		}
	}
	fillRoutingByAccuracy(in, alloc)
	alloc.PredictedAccuracy = alloc.EffectiveAccuracy(in)
	alloc.SolveTime = stopwatch(start)
	return alloc, nil
}
