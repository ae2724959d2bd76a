package allocator

import (
	"fmt"
	"math"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/profiles"
)

// MILPOptions tune the Proteus allocator.
type MILPOptions struct {
	// TimeLimit and StallNodes are read by nothing: they bounded the
	// branch-and-bound search this package no longer runs. They stay only
	// because bench/alloc.go still sets them; ROADMAP 8(k) deletes them.
	TimeLimit  time.Duration
	StallNodes int
	// MaxBackoffs bounds the β demand-reduction iterations (default 600,
	// enough to shrink any family from extreme overload down to the drop
	// threshold).
	MaxBackoffs int
	// SwitchCost is the objective penalty for loading a variant onto a
	// device that was not hosting it, expressed as the fraction of the
	// device-variant pair's capacity lost to the load (load delay over the
	// control period). Default 0.05; negative disables.
	SwitchCost float64
	// Filter restricts the candidate variants (used by the Clipper-HT/HA
	// and w/o-MS configurations). Nil admits every variant.
	Filter func(ref VariantRef, in *Input) bool
}

// demandFloor is the minimum demand (QPS) assumed per family so that an
// idle system still hosts (accurate) models.
const demandFloor = 0.01

func (o *MILPOptions) withDefaults() MILPOptions {
	out := MILPOptions{MaxBackoffs: 600, SwitchCost: 0.05}
	if o != nil {
		out.Filter = o.Filter
		if o.SwitchCost > 0 {
			out.SwitchCost = o.SwitchCost
		} else if o.SwitchCost < 0 {
			out.SwitchCost = 0
		}
		if o.MaxBackoffs > 0 {
			out.MaxBackoffs = o.MaxBackoffs
		}
	}
	return out
}

// withFilter copies the caller's options with Filter set, leaving the
// defaults to NewMILP: withDefaults reads a negative field as "disabled" and
// returns 0, which a second pass would read as unset.
func withFilter(opts *MILPOptions, filter func(ref VariantRef, in *Input) bool) *MILPOptions {
	var o MILPOptions
	if opts != nil {
		o = *opts
	}
	o.Filter = filter
	return &o
}

// MILP is the Proteus resource manager: it maximizes effective accuracy
// subject to serving the full target demand, jointly choosing model
// selection, placement and query assignment (§4, Eq. 7). When the demand is
// proven infeasible it divides the short families' demand by β = 1.05 and
// re-solves.
//
// A MILP is not safe for concurrent use: Allocate reads and replaces the
// previous plan, and every exact solve reuses the DP buffers the MILP keeps.
type MILP struct {
	opts MILPOptions
	// prev biases device expansion toward the previous hosting to minimize
	// model-loading churn.
	prev *Allocation
	// dp holds the exact DP's buffers between solves (dpScratch), grown on
	// the first solve.
	dp dpScratch
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
	start := wallNow()
	demand := flooredDemand(in)
	admit := m.admitted(in)
	// β back-off (§4): when no plan serves the demand, shrink it by β and
	// re-solve. The back-off is per-family: only the families the local
	// search reports as short get scaled, so one expensive bottleneck
	// application does not force shedding on every other one.
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
		alloc, short := m.solveAggregated(in, scaled, admit, start)
		if alloc != nil {
			alloc.Stats.Backoffs = iter
			total, served := 0.0, 0.0
			for q := range alloc.Routing {
				if in.Demand[q] <= 0 {
					continue
				}
				// Routing fractions are relative to the original demand.
				ratio := scaled[q] / math.Max(in.Demand[q], demandFloor)
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
			alloc.SolveTime = stopwatch(start)
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

// flooredDemand is the step's demand with every family raised to
// demandFloor.
func flooredDemand(in *Input) []float64 {
	demand := make([]float64, len(in.Demand))
	for q, s := range in.Demand {
		demand[q] = math.Max(s, demandFloor)
	}
	return demand
}

// wallNow and stopwatch are the package's only wall-clock reads: a solve's
// start and the wall time since it, for Allocation.SolveTime and
// SolverStats.SolverTime. Nothing they return feeds a plan.
func wallNow() time.Time {
	return time.Now() //lint:allow determinism wall-clock SolveTime measurement only; never feeds the plan
}

func stopwatch(t0 time.Time) time.Duration {
	return time.Since(t0) //lint:allow determinism reporting-only wall-clock measurement
}

// solveAggregated solves the type-aggregated formulation: integer counts
// n_{g,m} of devices in group g hosting variant m, and served rates w_{g,m}
// for the variant's family. The DP over group-usage vectors (exact.go)
// solves the paper's objective exactly on shapes within its work limit;
// past it the local search plans (searchSpace.search), and no bound is
// proven.
func (m *MILP) solveAggregated(in *Input, demand []float64, admit []bool, start time.Time) (*Allocation, []bool) {
	a, short := m.model(in, demand, admit)
	if a == nil {
		return nil, short
	}
	space := a.space
	t0 := stopwatch(start)
	if !space.exactFits() {
		counts, obj, short := space.search()
		if counts == nil {
			return nil, short
		}
		served, _ := space.fill(counts)
		alloc := m.expand(in, a, counts, served)
		// A heuristic plan: Bound 0 and RelGap -1 encode "no proven bound".
		alloc.Stats = SolverStats{Objective: obj, RelGap: -1, SolverTime: stopwatch(start) - t0}
		return alloc, nil
	}
	best, feasible := space.exact(&m.dp)
	dpTime := stopwatch(start) - t0
	if !feasible {
		// Proven infeasible: back off. The local search's shortfall marks the
		// bottleneck families, so only they are scaled.
		return nil, space.shortfall(space.improve(make([]int, len(a.pairs)), 50))
	}
	obj, _ := space.objective(best)
	counts := best
	// Churn control: if evolving the *previous* plan under the new demand
	// gets within 0.2% of the optimum, prefer it — equal-accuracy optima
	// abound in this model, and gratuitous re-placement costs a model load
	// (device downtime) per switched device.
	if kept, o := space.kept(); kept != nil && o >= obj*0.998 {
		counts = kept
	}
	served, _ := space.fill(counts)
	alloc := m.expand(in, a, counts, served)
	// The DP's certificate: the optimum is proven, so the bound is the
	// objective and no tree was searched.
	alloc.Optimal = true
	alloc.Stats = SolverStats{Objective: obj, Bound: obj, SolverTime: dpTime}
	return alloc, nil
}

// aggModel is one step's type-aggregated model: the (group, variant) pairs
// that can serve under the step's SLOs and filter, and the search space over
// their device counts.
type aggModel struct {
	groups []cluster.TypeGroup
	refs   []VariantRef
	pairs  []aggPair // shared with space
	space  *searchSpace
	demand []float64
}

// model builds the step's model over the healthy devices' type groups and
// the variants admit admits (see admitted). It returns nil and the families
// to back off when the demand cannot be served at any count: nil when no
// pair can serve anything, one family when a family with demand has no pair.
func (m *MILP) model(in *Input, demand []float64, admit []bool) (*aggModel, []bool) {
	a := &aggModel{
		groups: in.Cluster.GroupByType(),
		refs:   in.Variants(),
		demand: demand,
	}
	for gi, g := range a.groups {
		for ri, ref := range a.refs {
			if admit != nil && !admit[ri] {
				continue
			}
			if peak := peakFor(g.Spec, ref, in); peak > 0 {
				a.pairs = append(a.pairs, aggPair{g: gi, r: ri, peak: peak})
			}
		}
	}
	if len(a.pairs) == 0 {
		return nil, nil
	}
	for q := range in.Families {
		if demand[q] <= 0 {
			continue
		}
		served := false
		for _, pr := range a.pairs {
			served = served || a.refs[pr.r].Family == q
		}
		if !served {
			short := make([]bool, len(in.Families))
			short[q] = true
			return nil, short // family unservable at any scale
		}
	}
	ginfos := make([]groupInfo, len(a.groups))
	for gi := range a.groups {
		ginfos[gi] = groupInfo{size: len(a.groups[gi].Devices)}
	}
	a.space = newSearchSpace(ginfos, a.pairs, a.refs, demand)
	// Switch costs: hosting more devices of a variant than the previous plan
	// requires model loads, each costing roughly SwitchCost of the device's
	// capacity during the control period; the objective pays for them, so the
	// optimizer trades accuracy gains against re-placement downtime
	// explicitly.
	if prev := m.prevCounts(in, a.groups, a.refs, a.pairs); prev != nil {
		a.space.prev = prev
		if m.opts.SwitchCost > 0 {
			a.space.switchCost = make([]float64, len(a.pairs))
			for i, pr := range a.pairs {
				a.space.switchCost[i] = m.opts.SwitchCost * pr.peak * 100
			}
		}
	}
	return a, nil
}

// expand turns per-pair device counts and served rates into a plan: counts
// become concrete devices, preferring devices that already host the same
// variant (minimizes loading churn), and each pair's rate is split evenly
// over its devices.
func (m *MILP) expand(in *Input, a *aggModel, counts []int, served []float64) *Allocation {
	alloc := NewAllocation(in)
	used := make(map[int]bool)
	type placed struct {
		device int
		ref    VariantRef
		share  float64 // per-device served QPS
	}
	var placements []placed
	for i, pr := range a.pairs {
		count := counts[i]
		if count <= 0 {
			continue
		}
		ref := a.refs[pr.r]
		devices := m.pickDevices(a.groups[pr.g].Devices, ref, count, used)
		share := served[i] / float64(count)
		for _, d := range devices {
			alloc.Hosted[d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
			placements = append(placements, placed{device: d, ref: ref, share: share})
		}
	}
	accNum, accDen := 0.0, 0.0
	for _, pl := range placements {
		if s := a.demand[pl.ref.Family]; s > 0 {
			alloc.Routing[pl.ref.Family][pl.device] = pl.share / s
		}
		accNum += pl.share * pl.ref.Variant.Accuracy
		accDen += pl.share
	}
	if accDen > 0 {
		alloc.PredictedAccuracy = accNum / accDen
	}
	return alloc
}

// aggPair is one (group, variant) choice of the aggregated formulation and
// the variant's peak rate on one of the group's devices.
type aggPair struct {
	g, r int // group index, variant-ref index
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

// admitted evaluates the variant filter once per Allocate: entry ri says
// whether in.Variants()[ri] may be hosted. The filter reads only in, which
// the β back-off does not change. Nil admits every variant.
func (m *MILP) admitted(in *Input) []bool {
	if m.opts.Filter == nil {
		return nil
	}
	refs := in.Variants()
	admit := make([]bool, len(refs))
	for ri, ref := range refs {
		admit[ri] = m.opts.Filter(ref, in)
	}
	return admit
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

// peakFor evaluates P_{d,m,q} for a device-type spec rather than a concrete
// device (all devices in a group are identical).
func peakFor(spec cluster.TypeSpec, ref VariantRef, in *Input) float64 {
	return profiles.EffectiveCapacity(spec, ref.Variant, in.SLOs[ref.Family])
}
