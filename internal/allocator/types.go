// Package allocator implements the resource-management half of Proteus
// (§4): given a heterogeneous cluster, registered model families with SLOs,
// and a target per-family demand, produce a joint model-selection /
// model-placement / query-assignment plan. The Proteus allocator solves the
// paper's MILP aggregated over identical devices: exactly, by a dynamic
// program over per-type device counts (exact.go), on clusters within its
// work limit, and by a local search on larger ones. The literal per-device
// formulation, which Fig. 10 measures, is solved by branch-and-bound
// (internal/milp).
// The package also implements the baselines of §6.1.1 — INFaaS-Accuracy's greedy heuristic, Sommelier's
// static-placement variant switching, Clipper-HT/HA static plans — and the
// §6.5 ablations (w/o model selection, w/o model placement, w/o query
// assignment).
package allocator

import (
	"fmt"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

// Input is the allocation problem: the cluster, the registered query types
// (one model family each), their latency SLOs and their demand.
type Input struct {
	Cluster  *cluster.Cluster
	Families []models.Family
	// SLOs[q] is the latency SLO of family q.
	SLOs []time.Duration
	// Demand[q] is the target demand s_q in QPS for family q.
	Demand []float64
}

// Validate checks dimensional consistency.
func (in *Input) Validate() error {
	if in.Cluster == nil || in.Cluster.Size() == 0 {
		return fmt.Errorf("allocator: empty cluster")
	}
	if len(in.Families) == 0 {
		return fmt.Errorf("allocator: no families")
	}
	if len(in.SLOs) != len(in.Families) || len(in.Demand) != len(in.Families) {
		return fmt.Errorf("allocator: SLOs/Demand length mismatch: %d families, %d SLOs, %d demands",
			len(in.Families), len(in.SLOs), len(in.Demand))
	}
	for q, s := range in.Demand {
		if s < 0 {
			return fmt.Errorf("allocator: negative demand for family %d", q)
		}
		if in.SLOs[q] <= 0 {
			return fmt.Errorf("allocator: non-positive SLO for family %d", q)
		}
	}
	return nil
}

// VariantRef locates a variant inside the Input's family list.
type VariantRef struct {
	Family  int // index into Input.Families
	Variant models.Variant
}

// Variants flattens all families' variants with their family indices, in
// deterministic order.
func (in *Input) Variants() []VariantRef {
	var out []VariantRef
	for q, f := range in.Families {
		for _, v := range f.Variants {
			out = append(out, VariantRef{Family: q, Variant: v})
		}
	}
	return out
}

// Peak returns P_{d,m,q}: the peak throughput of variant ref on device d
// under its family's SLO (0 when infeasible). Failed devices have zero peak,
// so every allocator that consults capacity automatically avoids them.
func (in *Input) Peak(d cluster.Device, ref VariantRef) float64 {
	if !in.Cluster.Healthy(d.ID) {
		return 0
	}
	return profiles.EffectiveCapacity(d.Spec, ref.Variant, in.SLOs[ref.Family])
}

// SolverStats reports how an optimizing allocator computed its plan, for
// the control plane's decision audit log. Heuristic and static allocators
// leave it zero. All fields are JSON-safe: infinities from the solver
// (e.g. no proven bound) are encoded as RelGap = -1 and Bound = 0.
type SolverStats struct {
	// Objective is the incumbent objective value of the final solve.
	Objective float64 `json:"objective"`
	// Bound is the best proven bound on the optimum (0 when unproven).
	Bound float64 `json:"bound"`
	// RelGap is the relative optimality gap of the final solve, or -1 when
	// no bound was proven.
	RelGap float64 `json:"rel_gap"`
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int `json:"nodes"`
	// LPIters and DualNodes are milp.Solution's pivot counters for the final
	// solve: simplex pivots over its Nodes relaxations, and how many of those
	// were re-optimised by dual pivots alone. Not serialized.
	LPIters   int `json:"-"`
	DualNodes int `json:"-"`
	// Backoffs is how many β demand-reduction iterations ran before the
	// final (feasible) solve.
	Backoffs int `json:"backoffs"`
	// SolverTime is the time spent inside the final solve: the DP, the
	// local search past its work limit, or PerDevice's branch-and-bound.
	// Allocation.SolveTime additionally covers model building, churn
	// control and every back-off iteration. A wall time, so it is not
	// serialized.
	SolverTime time.Duration `json:"-"`
	// TimeLimited reports that MILPOptions.TimeLimit fired during the final
	// solve: Bound, Nodes and RelGap — and possibly the plan — then depend
	// on the speed of the host, so a record carrying it is not
	// reproducible. Never set when no TimeLimit is configured.
	TimeLimited bool `json:"time_limited,omitempty"`
}

// Allocation is a complete resource-management plan.
type Allocation struct {
	// Hosted[d] is the variant placed on device d, or nil for an idle
	// device.
	Hosted []*VariantRef
	// Routing[q][d] is y_{d,q}: the fraction of family q's queries routed
	// to device d. Rows sum to at most 1 (less when the plan deliberately
	// sheds load because demand exceeds cluster capacity).
	Routing [][]float64
	// PredictedAccuracy is the plan's effective accuracy (Σ A_m·w / Σ w)
	// under the target demand, as estimated by the allocator.
	PredictedAccuracy float64
	// ServedQPS[q] is the demand the plan provisions for family q.
	ServedQPS []float64
	// DemandScale is the fraction of the requested demand the plan serves
	// (1 when the MILP was feasible at full demand; < 1 after β-backoff).
	DemandScale float64
	// SolveTime is how long the allocator ran.
	SolveTime time.Duration
	// Optimal reports whether the plan is proven optimal for its
	// formulation (always false for heuristic allocators).
	Optimal bool
	// Stats carries solver internals for the decision audit log (zero for
	// heuristic and static allocators).
	Stats SolverStats
}

// NewAllocation returns an empty plan shaped for the input.
func NewAllocation(in *Input) *Allocation {
	a := &Allocation{
		Hosted:      make([]*VariantRef, in.Cluster.Size()),
		Routing:     make([][]float64, len(in.Families)),
		ServedQPS:   make([]float64, len(in.Families)),
		DemandScale: 1,
	}
	for q := range a.Routing {
		a.Routing[q] = make([]float64, in.Cluster.Size())
	}
	return a
}

// HostedID returns the variant ID hosted on device d ("" when idle).
func (a *Allocation) HostedID(d int) string {
	if a.Hosted[d] == nil {
		return ""
	}
	return a.Hosted[d].Variant.ID()
}

// Check verifies structural invariants of the plan against its input:
// routing only to devices hosting a serving variant, routing rows summing
// to <= 1, and per-device load within peak capacity (with tolerance).
// It returns the first violation found.
func (a *Allocation) Check(in *Input) error {
	const tol = 1e-6
	if len(a.Hosted) != in.Cluster.Size() || len(a.Routing) != len(in.Families) {
		return fmt.Errorf("allocation: shape mismatch")
	}
	for q, row := range a.Routing {
		sum := 0.0
		for d, y := range row {
			if y < -tol || y > 1+tol {
				return fmt.Errorf("allocation: routing[%d][%d] = %v out of [0,1]", q, d, y)
			}
			if y > tol {
				ref := a.Hosted[d]
				if ref == nil {
					return fmt.Errorf("allocation: family %d routed to idle device %d", q, d)
				}
				if ref.Family != q {
					return fmt.Errorf("allocation: family %d routed to device %d hosting family %d",
						q, d, ref.Family)
				}
			}
			sum += y
		}
		if sum > 1+tol {
			return fmt.Errorf("allocation: routing row %d sums to %v > 1", q, sum)
		}
	}
	// Per-device capacity: assigned QPS must not exceed P_{d,m,q}.
	for d := 0; d < in.Cluster.Size(); d++ {
		ref := a.Hosted[d]
		if ref == nil {
			continue
		}
		load := a.Routing[ref.Family][d] * in.Demand[ref.Family] * a.DemandScale
		peak := in.Peak(in.Cluster.Device(d), *ref)
		if load > peak*(1+1e-4)+tol {
			return fmt.Errorf("allocation: device %d loaded at %.3f QPS above peak %.3f", d, load, peak)
		}
	}
	return nil
}

// EffectiveAccuracy computes the demand-weighted accuracy the plan delivers
// if every routed query is served: Σ_q Σ_d y_{d,q}·s_q·A(hosted[d]) / Σ
// routed. It returns 0 when nothing is routed.
func (a *Allocation) EffectiveAccuracy(in *Input) float64 {
	num, den := 0.0, 0.0
	for q, row := range a.Routing {
		for d, y := range row {
			if y <= 0 {
				continue
			}
			ref := a.Hosted[d]
			if ref == nil {
				continue
			}
			w := y * in.Demand[q]
			num += w * ref.Variant.Accuracy
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ProjectHealthy carries a previous plan onto the input's healthy devices:
// hosting and routing entries on failed devices are vacated, everything else
// is kept. It is the control plane's last-resort fallback when every
// allocator errors — serving degrades to the surviving replicas of the old
// plan instead of aborting the run. ServedQPS, PredictedAccuracy and
// DemandScale are recomputed against the input's demand.
func ProjectHealthy(prev *Allocation, in *Input) *Allocation {
	out := NewAllocation(in)
	for d := 0; d < in.Cluster.Size() && d < len(prev.Hosted); d++ {
		if in.Cluster.Healthy(d) {
			out.Hosted[d] = prev.Hosted[d]
		}
	}
	total, served := 0.0, 0.0
	for q := range out.Routing {
		if q >= len(prev.Routing) {
			break
		}
		sum := 0.0
		for d, y := range prev.Routing[q] {
			if d >= in.Cluster.Size() || out.Hosted[d] == nil || y <= 0 {
				continue
			}
			out.Routing[q][d] = y
			sum += y
		}
		out.ServedQPS[q] = sum * in.Demand[q]
		total += in.Demand[q]
		served += out.ServedQPS[q]
	}
	out.DemandScale = 1
	if total > 0 {
		out.DemandScale = served / total
		if out.DemandScale > 1 {
			out.DemandScale = 1
		}
	}
	out.PredictedAccuracy = out.EffectiveAccuracy(in)
	return out
}

// Features is the Table 2 capability matrix entry for an allocator.
type Features struct {
	DynamicPlacement bool
	DynamicSelection bool
	AccuracyScaling  bool
	// Method names the placement/selection mechanism ("MILP", "Heuristic",
	// "Static").
	Method string
}

// Allocator produces allocation plans. Implementations must be safe to call
// repeatedly with changing demand; static baselines return their initial
// plan on every call (Dynamic() == false tells the control plane not to
// bother re-invoking them).
type Allocator interface {
	// Name matches the artifact's model_allocation config values
	// ("ilp", "infaas_v2", "sommelier", "clipper"...).
	Name() string
	// Allocate computes a plan for the input.
	Allocate(in *Input) (*Allocation, error)
	// Dynamic reports whether re-allocation over time is supported.
	Dynamic() bool
	// Features describes the allocator for the Table 2 matrix.
	Features() Features
}

// Beta is the demand back-off factor of §4 / the artifact's default
// hyper-parameter: when the MILP is infeasible, demand is divided by Beta
// and re-solved.
const Beta = 1.05
