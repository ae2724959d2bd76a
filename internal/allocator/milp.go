package allocator

import (
	"fmt"
	"math"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/lp"
	"proteus/internal/milp"
	"proteus/internal/profiles"
)

// MILPOptions tune the Proteus allocator.
type MILPOptions struct {
	// PerDevice forces the paper's literal per-device formulation with one
	// binary x_{d,m} per (device, variant) pair. By default the allocator
	// aggregates identical devices into integer counts, which is exact for
	// homogeneous device groups and much faster (see DESIGN.md).
	PerDevice bool
	// TimeLimit bounds each MILP solve on the wall clock (default: none).
	// A solve it cuts short is marked SolverStats.TimeLimited and is not
	// reproducible; callers that must not depend on the host budget the
	// solve with MaxNodes instead.
	TimeLimit time.Duration
	// MaxNodes bounds branch-and-bound nodes per solve (default 200 000):
	// the deterministic budget, the same work on every host.
	MaxNodes int
	// RelGap is the accepted relative optimality gap (default 1e-6, i.e.
	// effectively exact; negative demands an exact proof, gap 0). The
	// control plane relaxes it to trade optimality for solve time on large
	// instances, as the paper does by falling back to heuristics past its
	// 60-second horizon (§6.8).
	RelGap float64
	// StallNodes stops a solve early (keeping the incumbent) after that
	// many branch-and-bound nodes without improvement. Default 3000;
	// negative disables.
	StallNodes int
	// MaxBackoffs bounds the β demand-reduction iterations (default 600,
	// enough to shrink any family from extreme overload down to the drop
	// threshold).
	MaxBackoffs int
	// DemandFloor is the minimum demand assumed per family so that an idle
	// system still hosts (accurate) models (default 0.01 QPS).
	DemandFloor float64
	// SwitchCost is the objective penalty for loading a variant onto a
	// device that was not hosting it, expressed as the fraction of the
	// device-variant pair's capacity lost to the load (load delay over the
	// control period). Default 0.05; negative disables.
	SwitchCost float64
	// FairnessWeight > 0 enables the fairness extension the paper sketches
	// in §7: the objective gains FairnessWeight · Σs_q · t where t lower-
	// bounds every family's average served accuracy, trading system-level
	// effective accuracy for max-min fairness across applications. 0 (the
	// default) reproduces the paper's system-level objective.
	FairnessWeight float64
	// Filter restricts the candidate variants (used by the Clipper-HT/HA
	// and w/o-MS configurations). Nil admits every variant.
	Filter func(ref VariantRef, in *Input) bool
}

func (o *MILPOptions) withDefaults() MILPOptions {
	out := MILPOptions{MaxNodes: 200_000, MaxBackoffs: 600, DemandFloor: 0.01, StallNodes: 3000, SwitchCost: 0.05, RelGap: 1e-6}
	if o != nil {
		out.PerDevice = o.PerDevice
		out.TimeLimit = o.TimeLimit
		out.Filter = o.Filter
		if o.RelGap > 0 {
			out.RelGap = o.RelGap
		} else if o.RelGap < 0 {
			out.RelGap = 0
		}
		if o.SwitchCost > 0 {
			out.SwitchCost = o.SwitchCost
		} else if o.SwitchCost < 0 {
			out.SwitchCost = 0
		}
		if o.FairnessWeight > 0 {
			out.FairnessWeight = o.FairnessWeight
		}
		if o.StallNodes > 0 {
			out.StallNodes = o.StallNodes
		} else if o.StallNodes < 0 {
			out.StallNodes = 0
		}
		if o.MaxNodes > 0 {
			out.MaxNodes = o.MaxNodes
		}
		if o.MaxBackoffs > 0 {
			out.MaxBackoffs = o.MaxBackoffs
		}
		if o.DemandFloor > 0 {
			out.DemandFloor = o.DemandFloor
		}
	}
	return out
}

// MILP is the Proteus resource manager: it maximizes effective accuracy
// subject to serving the full target demand, jointly choosing model
// selection, placement and query assignment (§4, Eq. 7). On infeasibility
// it divides demand by β = 1.05 and re-solves.
type MILP struct {
	opts MILPOptions
	// prev biases device expansion toward the previous hosting to minimize
	// model-loading churn.
	prev *Allocation
}

// NewMILP returns the Proteus allocator ("ilp" in the artifact configs).
func NewMILP(opts *MILPOptions) *MILP {
	return &MILP{opts: opts.withDefaults()}
}

// Name implements Allocator.
func (m *MILP) Name() string { return "ilp" }

// Dynamic implements Allocator.
func (m *MILP) Dynamic() bool { return true }

// Features implements Allocator.
func (m *MILP) Features() Features {
	return Features{DynamicPlacement: true, DynamicSelection: true, AccuracyScaling: true, Method: "MILP"}
}

// Allocate implements Allocator.
func (m *MILP) Allocate(in *Input) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow determinism wall-clock SolveTime measurement only; never feeds the plan
	demand := make([]float64, len(in.Demand))
	for q, s := range in.Demand {
		demand[q] = math.Max(s, m.opts.DemandFloor)
	}
	// β back-off (§4): when the MILP is infeasible, shrink demand by β and
	// re-solve. The back-off is per-family: only the families the
	// feasibility probe reports as short get scaled, so one expensive
	// bottleneck application does not force shedding on every other one.
	scale := make([]float64, len(demand))
	for q := range scale {
		scale[q] = 1
	}
	for iter := 0; iter < m.opts.MaxBackoffs; iter++ {
		scaled := make([]float64, len(demand))
		for q := range demand {
			scaled[q] = demand[q] * scale[q]
			if scaled[q] < 1e-4 {
				// Backed off to nothing: this family is unservable in this
				// configuration (e.g. its only admissible variant fits no
				// device). Serve none of it rather than looping forever.
				scaled[q] = 0
			}
		}
		var (
			alloc *Allocation
			short []bool
			err   error
		)
		if m.opts.PerDevice {
			alloc, short, err = m.solvePerDevice(in, scaled)
		} else {
			alloc, short, err = m.solveAggregated(in, scaled)
		}
		if err != nil {
			return nil, err
		}
		if alloc != nil {
			alloc.Stats.Backoffs = iter
			total, served := 0.0, 0.0
			for q := range alloc.Routing {
				if in.Demand[q] <= 0 {
					continue
				}
				// Routing fractions are relative to the original demand.
				ratio := scaled[q] / math.Max(in.Demand[q], m.opts.DemandFloor)
				for d := range alloc.Routing[q] {
					alloc.Routing[q][d] *= ratio
				}
				alloc.ServedQPS[q] = scaled[q]
				total += in.Demand[q]
				served += math.Min(scaled[q], in.Demand[q])
			}
			alloc.DemandScale = 1
			if total > 0 {
				alloc.DemandScale = served / total
			}
			alloc.SolveTime = time.Since(start) //lint:allow determinism reporting-only wall-clock measurement
			m.prev = alloc
			return alloc, nil
		}
		backedOff := false
		for q := range scale {
			if len(short) == len(scale) && !short[q] {
				continue
			}
			scale[q] /= Beta
			backedOff = true
		}
		if !backedOff {
			// No shortfall information: shrink everything.
			for q := range scale {
				scale[q] /= Beta
			}
		}
	}
	return nil, fmt.Errorf("allocator: MILP infeasible even after %d demand back-offs", m.opts.MaxBackoffs)
}

// solveAggregated solves the exact type-aggregated formulation: integer
// counts n_{g,m} of devices in group g hosting variant m, and served rates
// w_{g,m} for the variant's family.
func (m *MILP) solveAggregated(in *Input, demand []float64) (*Allocation, []bool, error) {
	groups := in.Cluster.GroupByType()
	refs := in.Variants()

	p := milp.NewProblem()
	var pairs []aggPair
	for gi, g := range groups {
		spec := g.Spec
		for ri, ref := range refs {
			if m.excluded(ref, in) {
				continue
			}
			peak := peakFor(spec, ref, in)
			if peak <= 0 {
				continue
			}
			limit := float64(len(g.Devices))
			n := p.AddInteger(fmt.Sprintf("n[%d,%s]", gi, ref.Variant.ID()), 0, limit)
			w := p.AddVariable(fmt.Sprintf("w[%d,%s]", gi, ref.Variant.ID()), 0, peak*limit)
			p.SetObjective(w, ref.Variant.Accuracy)
			// w <= peak * n
			p.AddConstraint([]lp.Term{{Var: w, Coef: 1}, {Var: n, Coef: -peak}}, lp.LE, 0)
			pairs = append(pairs, aggPair{g: gi, r: ri, n: n, w: w, l: -1, peak: peak})
		}
	}
	if len(pairs) == 0 {
		return nil, nil, nil
	}
	// Σ_m n_{g,m} <= |g| per group.
	for gi, g := range groups {
		var terms []lp.Term
		for _, pr := range pairs {
			if pr.g == gi {
				terms = append(terms, lp.Term{Var: pr.n, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.LE, float64(len(g.Devices)))
		}
	}
	// Σ w = s_q per family.
	for q := range in.Families {
		var terms []lp.Term
		for _, pr := range pairs {
			if refs[pr.r].Family == q {
				terms = append(terms, lp.Term{Var: pr.w, Coef: 1})
			}
		}
		if len(terms) == 0 {
			if demand[q] > 0 {
				short := make([]bool, len(in.Families))
				short[q] = true
				return nil, short, nil // family unservable at any scale
			}
			continue
		}
		p.AddConstraint(terms, lp.EQ, demand[q])
	}

	// Fairness extension (§7): t lower-bounds each family's mean served
	// accuracy; its objective weight trades total accuracy for max-min
	// fairness. Families with zero demand are unconstrained.
	tVar := -1
	if m.opts.FairnessWeight > 0 {
		tVar = p.AddVariable("t-fair", 0, 100)
		totalDemand := 0.0
		for q := range in.Families {
			if demand[q] <= 0 {
				continue
			}
			totalDemand += demand[q]
			// Σ A_m w_{g,m,q} >= t * s_q
			terms := []lp.Term{{Var: tVar, Coef: -demand[q]}}
			for _, pr := range pairs {
				if refs[pr.r].Family == q {
					terms = append(terms, lp.Term{Var: pr.w, Coef: refs[pr.r].Variant.Accuracy})
				}
			}
			p.AddConstraint(terms, lp.GE, 0)
		}
		p.SetObjective(tVar, m.opts.FairnessWeight*totalDemand)
	}

	// Switch costs: hosting more devices of a variant than the previous
	// plan requires model loads, each costing roughly SwitchCost of the
	// device's capacity during the control period. The load-count variables
	// l >= n - prev carry the penalty in the objective, so the optimizer
	// trades accuracy gains against re-placement downtime explicitly.
	prevCounts := m.prevCounts(in, groups, refs, pairs)
	var switchCosts []float64
	if prevCounts != nil && m.opts.SwitchCost > 0 {
		switchCosts = make([]float64, len(pairs))
		for i := range pairs {
			pr := &pairs[i]
			switchCosts[i] = m.opts.SwitchCost * pr.peak * 100
			pr.l = p.AddVariable(fmt.Sprintf("l[%d]", i), 0, float64(in.Cluster.Size()))
			p.SetObjective(pr.l, -switchCosts[i])
			// l >= n - prev  ⟺  n - l <= prev
			p.AddConstraint([]lp.Term{{Var: pr.n, Coef: 1}, {Var: pr.l, Coef: -1}},
				lp.LE, float64(prevCounts[i]))
		}
	}

	// Warm starts: the previous plan adapted to the new demand, and a local
	// search from scratch. The better feasible one seeds branch-and-bound.
	ginfos := make([]groupInfo, len(groups))
	for gi := range groups {
		ginfos[gi] = groupInfo{size: len(groups[gi].Devices)}
	}
	space := newSearchSpace(ginfos, pairs, refs, demand)
	space.prev = prevCounts
	space.switchCost = switchCosts
	var warm []float64
	warmObj := math.Inf(-1)
	consider := func(x []float64) {
		if x == nil {
			return
		}
		if obj, feasible := space.objective(space.countsFromVector(x)); feasible && obj > warmObj {
			warm, warmObj = x, obj
		}
	}
	if prevCounts != nil {
		consider(space.vector(append([]int(nil), prevCounts...), p.NumVariables()))
	}
	heurCounts := space.improve(make([]int, len(pairs)), 50)
	consider(space.vector(heurCounts, p.NumVariables()))

	if warm == nil {
		// Feasibility probe: if neither the previous plan nor the local
		// search can pack this demand, treat the step as infeasible and let
		// the β back-off shrink demand instead of burning the branch-and-
		// bound budget proving integer infeasibility near the capacity
		// boundary. (Slightly conservative: a packing the heuristics miss
		// costs at most one extra β step of shed demand.) The local search's
		// shortfall marks the bottleneck families for per-family back-off.
		return nil, space.shortfall(heurCounts), nil
	}

	sol := milp.Solve(p, &milp.Options{
		TimeLimit:  m.opts.TimeLimit,
		MaxNodes:   m.opts.MaxNodes,
		RelGap:     m.opts.RelGap,
		IntTol:     -1, // solver default
		StallNodes: m.opts.StallNodes,
		WarmStart:  warm,
	})
	switch sol.Status {
	case milp.Optimal, milp.Feasible:
	case milp.Infeasible, milp.Limit:
		return nil, nil, nil
	default:
		return nil, nil, fmt.Errorf("allocator: MILP solve ended with status %v", sol.Status)
	}

	xFinal := sol.X
	counts := space.countsFromVector(sol.X)
	objFinal, _ := space.objective(counts)
	// The local-search passes optimize the plain accuracy objective; with
	// the fairness term active they could override a fairer incumbent, so
	// they only run in the standard configuration.
	if m.opts.FairnessWeight == 0 {
		// Polish the incumbent: under a node or stall limit the branch-and-
		// bound may stop with an improvable plan; a local-search pass is
		// cheap and only ever helps.
		polished := space.improve(append([]int(nil), counts...), 50)
		if obj, feasible := space.objective(polished); feasible && obj > objFinal+1e-9 {
			if pv := space.vector(polished, p.NumVariables()); pv != nil {
				xFinal = pv
				objFinal = obj
			}
		}
		// Churn control: if evolving the *previous* plan under the new
		// demand gets within 0.2% of the best objective, prefer it —
		// equal-accuracy optima abound in this MILP, and gratuitous
		// re-placement costs a model load (device downtime) per switched
		// device.
		if prevCounts != nil {
			kept := space.improve(append([]int(nil), prevCounts...), 50)
			if obj, feasible := space.objective(kept); feasible && obj >= objFinal*0.998 {
				if pv := space.vector(kept, p.NumVariables()); pv != nil {
					xFinal = pv
				}
			}
		}
	}

	alloc := NewAllocation(in)
	alloc.Optimal = sol.Status == milp.Optimal
	alloc.Stats = solverStats(&sol)
	// Expand group counts to concrete devices, preferring devices that
	// already host the same variant (minimizes loading churn).
	used := make(map[int]bool)
	type placed struct {
		device int
		ref    VariantRef
		share  float64 // per-device served QPS
	}
	var placements []placed
	for _, pr := range pairs {
		count := int(math.Round(xFinal[pr.n]))
		if count <= 0 {
			continue
		}
		ref := refs[pr.r]
		devices := m.pickDevices(groups[pr.g].Devices, ref, count, used)
		share := xFinal[pr.w] / float64(count)
		for _, d := range devices {
			alloc.Hosted[d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
			placements = append(placements, placed{device: d, ref: ref, share: share})
		}
	}
	accNum, accDen := 0.0, 0.0
	for _, pl := range placements {
		if demand[pl.ref.Family] > 0 {
			alloc.Routing[pl.ref.Family][pl.device] = pl.share / demand[pl.ref.Family]
		}
		accNum += pl.share * pl.ref.Variant.Accuracy
		accDen += pl.share
	}
	if accDen > 0 {
		alloc.PredictedAccuracy = accNum / accDen
	}
	return alloc, nil, nil
}

// aggPair links one (group, variant) choice to its MILP variables in the
// aggregated formulation.
type aggPair struct {
	g, r int // group index, variant-ref index
	n, w int // MILP variable ids
	l    int // load-count variable id (-1 when no previous plan)
	peak float64
}

// prevCounts maps the previous allocation's hosting onto the current pair
// space (nil when there is no usable previous plan).
func (m *MILP) prevCounts(in *Input, groups []cluster.TypeGroup, refs []VariantRef, pairs []aggPair) []int {
	if m.prev == nil || len(m.prev.Hosted) != in.Cluster.Size() {
		return nil
	}
	devGroup := make([]int, in.Cluster.Size())
	for d := range devGroup {
		devGroup[d] = -1 // not in any group (e.g. failed devices)
	}
	for gi, g := range groups {
		for _, d := range g.Devices {
			devGroup[d] = gi
		}
	}
	hosted := make(map[int]map[string]int)
	for d, ref := range m.prev.Hosted {
		if ref == nil || devGroup[d] < 0 {
			continue
		}
		g := devGroup[d]
		if hosted[g] == nil {
			hosted[g] = make(map[string]int)
		}
		hosted[g][ref.Variant.ID()]++
	}
	counts := make([]int, len(pairs))
	for i, pr := range pairs {
		counts[i] = hosted[pr.g][refs[pr.r].Variant.ID()]
	}
	return counts
}

// solvePerDevice solves the paper's literal formulation with one binary per
// (device, variant) pair — used by the Fig. 10 scalability experiments and
// by clusters whose devices are all distinct.
func (m *MILP) solvePerDevice(in *Input, demand []float64) (*Allocation, []bool, error) {
	refs := in.Variants()
	devices := in.Cluster.Devices()

	p := milp.NewProblem()
	type pair struct {
		d, r int
		x, w int
		peak float64
	}
	var pairs []pair
	for _, dev := range devices {
		for ri, ref := range refs {
			if m.excluded(ref, in) {
				continue
			}
			peak := in.Peak(dev, ref)
			if peak <= 0 {
				continue
			}
			x := p.AddBinary(fmt.Sprintf("x[%d,%s]", dev.ID, ref.Variant.ID()))
			w := p.AddVariable(fmt.Sprintf("w[%d,%s]", dev.ID, ref.Variant.ID()), 0, peak)
			p.SetObjective(w, ref.Variant.Accuracy)
			p.AddConstraint([]lp.Term{{Var: w, Coef: 1}, {Var: x, Coef: -peak}}, lp.LE, 0)
			pairs = append(pairs, pair{d: dev.ID, r: ri, x: x, w: w, peak: peak})
		}
	}
	if len(pairs) == 0 {
		return nil, nil, nil
	}
	// Eq. 1: at most one variant per device.
	for _, dev := range devices {
		var terms []lp.Term
		for _, pr := range pairs {
			if pr.d == dev.ID {
				terms = append(terms, lp.Term{Var: pr.x, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.LE, 1)
		}
	}
	// Eq. 6: demand satisfied per family.
	for q := range in.Families {
		var terms []lp.Term
		for _, pr := range pairs {
			if refs[pr.r].Family == q {
				terms = append(terms, lp.Term{Var: pr.w, Coef: 1})
			}
		}
		if len(terms) == 0 {
			if demand[q] > 0 {
				short := make([]bool, len(in.Families))
				short[q] = true
				return nil, short, nil
			}
			continue
		}
		p.AddConstraint(terms, lp.EQ, demand[q])
	}

	sol := milp.Solve(p, &milp.Options{
		TimeLimit:  m.opts.TimeLimit,
		MaxNodes:   m.opts.MaxNodes,
		RelGap:     m.opts.RelGap,
		IntTol:     -1, // solver default
		StallNodes: m.opts.StallNodes,
	})
	switch sol.Status {
	case milp.Optimal, milp.Feasible:
	case milp.Infeasible, milp.Limit:
		return nil, nil, nil
	default:
		return nil, nil, fmt.Errorf("allocator: MILP solve ended with status %v", sol.Status)
	}

	alloc := NewAllocation(in)
	alloc.Optimal = sol.Status == milp.Optimal
	alloc.Stats = solverStats(&sol)
	for _, pr := range pairs {
		if sol.X[pr.x] < 0.5 {
			continue
		}
		ref := refs[pr.r]
		alloc.Hosted[pr.d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
		if demand[ref.Family] > 0 {
			alloc.Routing[ref.Family][pr.d] = sol.X[pr.w] / demand[ref.Family]
		}
	}
	alloc.PredictedAccuracy = predictedAccuracy(sol.Objective, demand)
	return alloc, nil, nil
}

func (m *MILP) excluded(ref VariantRef, in *Input) bool {
	return m.opts.Filter != nil && !m.opts.Filter(ref, in)
}

// pickDevices chooses count device IDs from the group, preferring devices
// that hosted the same variant in the previous allocation.
func (m *MILP) pickDevices(group []int, ref VariantRef, count int, used map[int]bool) []int {
	var sticky, fresh []int
	for _, d := range group {
		if used[d] {
			continue
		}
		if m.prev != nil && d < len(m.prev.Hosted) && m.prev.Hosted[d] != nil &&
			m.prev.Hosted[d].Variant.ID() == ref.Variant.ID() {
			sticky = append(sticky, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	sort.Ints(sticky)
	sort.Ints(fresh)
	picked := append(sticky, fresh...)
	if count > len(picked) {
		count = len(picked)
	}
	picked = picked[:count]
	for _, d := range picked {
		used[d] = true
	}
	return picked
}

// solverStats converts a branch-and-bound solution into the audit-log
// form, sanitizing infinities (a Limit-terminated solve may carry an
// unproven +Inf bound, which JSON cannot encode).
func solverStats(sol *milp.Solution) SolverStats {
	st := SolverStats{
		Objective:   sol.Objective,
		Nodes:       sol.Nodes,
		LPIters:     sol.LPIters,
		DualNodes:   sol.DualNodes,
		SolverTime:  sol.Elapsed,
		RelGap:      -1,
		TimeLimited: sol.TimeLimited,
	}
	if gap := sol.Gap(); !math.IsInf(gap, 0) && !math.IsNaN(gap) {
		st.RelGap = gap
	}
	if !math.IsInf(sol.Bound, 0) && !math.IsNaN(sol.Bound) {
		st.Bound = sol.Bound
	}
	return st
}

func predictedAccuracy(objective float64, demand []float64) float64 {
	total := 0.0
	for _, s := range demand {
		total += s
	}
	if total <= 0 {
		return 0
	}
	return objective / total
}

// peakFor evaluates P_{d,m,q} for a device-type spec rather than a concrete
// device (all devices in a group are identical).
func peakFor(spec cluster.TypeSpec, ref VariantRef, in *Input) float64 {
	return profiles.EffectiveCapacity(spec, ref.Variant, in.SLOs[ref.Family])
}
