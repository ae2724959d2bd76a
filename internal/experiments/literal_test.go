package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/milp"
	"proteus/internal/models"
)

// perDeviceInput is fig10Input(devices, variants, types) with demand at load
// times the capacity of its round-robin assignment of healthy devices to
// families, each device on its family's highest-capacity variant. down
// takes devices 0 and 3 out of service first.
func perDeviceInput(devices, variants, types int, load float64, down bool) *allocator.Input {
	in := fig10Input(devices, variants, types)
	if down {
		mask := make([]bool, in.Cluster.Size())
		mask[0], mask[3] = true, true
		in.Cluster = in.Cluster.WithHealth(mask)
	}
	clear(in.Demand)
	for i, d := range in.Cluster.Devices() {
		best := 0.0
		for _, ref := range in.Variants() {
			if ref.Family == i%types {
				best = math.Max(best, in.Peak(d, ref))
			}
		}
		in.Demand[i%types] += load * best
	}
	return in
}

// mostAccurateServable admits, per family, only the most accurate variant
// that some device of in can serve within the family's SLO: Clipper-HA's
// model choice, written as an allocator Filter.
func mostAccurateServable(ref allocator.VariantRef, in *allocator.Input) bool {
	vs := in.Families[ref.Family].Variants
	for i := len(vs) - 1; i >= 0; i-- {
		cand := allocator.VariantRef{Family: ref.Family, Variant: vs[i]}
		for _, d := range in.Cluster.Devices() {
			if in.Peak(d, cand) > 0 {
				return cand.Variant.ID() == ref.Variant.ID()
			}
		}
	}
	return false
}

// filtered returns a copy of in whose families hold only the variants that
// filter admits, so the literal model sees what a filtered DP sees.
func filtered(in *allocator.Input, filter func(allocator.VariantRef, *allocator.Input) bool) *allocator.Input {
	out := *in
	out.Families = make([]models.Family, len(in.Families))
	for q, f := range in.Families {
		out.Families[q] = f
		out.Families[q].Variants = nil
		for _, v := range f.Variants {
			if filter(allocator.VariantRef{Family: q, Variant: v}, in) {
				out.Families[q].Variants = append(out.Families[q].Variants, v)
			}
		}
	}
	return &out
}

// TestLiteralMatchesDP holds the two formulations of the paper's model to
// one optimum on the Fig. 10 shapes, with and without down devices, and
// with and without a variant filter (mostAccurateServable, given to the DP
// as MILPOptions.Filter and to the literal model as a trimmed input): the
// literal per-device MILP searched at gap 0 and the control loop's DP over
// the type-aggregated model (NewMILP). Where the tree proves its optimum,
// the DP serves the full demand with the same objective to 1e-6 relative;
// where the tree proves the demand infeasible, the DP backs off. The grid
// must hold both. A proof costs the tree 16 000 to over 20 000 nodes on
// the multi-family shapes at 12 devices and load 0.8 (2–5 s each), so the
// search stops at literalProofNodes; a tree that stops there has an
// incumbent and a bound, and the DP's optimum must lie between them (10 of
// the 144 cases, all unfiltered).
func TestLiteralMatchesDP(t *testing.T) {
	const literalProofNodes = 700
	var proven, infeasible, bracketed int
	for _, devices := range []int{4, 8, 12} {
		for _, sh := range []struct{ variants, types int }{{17, 3}, {9, 3}, {5, 1}, {12, 4}} {
			for _, load := range []float64{0.3, 0.8, 1.3} {
				for _, down := range []bool{false, true} {
					for _, filter := range []bool{false, true} {
						name := fmt.Sprintf("devices=%d,variants=%d,types=%d,load=%v,down=%v,filter=%v",
							devices, sh.variants, sh.types, load, down, filter)
						t.Run(name, func(t *testing.T) {
							in := perDeviceInput(devices, sh.variants, sh.types, load, down)
							literal, opts := in, (*allocator.MILPOptions)(nil)
							if filter {
								literal = filtered(in, mostAccurateServable)
								opts = &allocator.MILPOptions{Filter: mostAccurateServable}
							}
							sol, _ := solveLiteral(literal, &milp.Options{RelGap: 0, MaxNodes: literalProofNodes})
							plan, err := allocator.NewMILP(opts).Allocate(in)
							if err != nil {
								t.Fatal(err)
							}
							st := plan.Stats
							tol := 1e-6 * math.Max(1, math.Abs(st.Objective))
							switch {
							case sol.Status == milp.Infeasible:
								infeasible++
								if st.Backoffs == 0 {
									t.Errorf("the tree proves the demand infeasible, the DP serves it (objective %.6f)", st.Objective)
								}
							case sol.Status != milp.Optimal && sol.Status != milp.Feasible:
								t.Errorf("the tree ended %v after %d nodes", sol.Status, sol.Nodes)
							case st.Backoffs != 0:
								t.Errorf("the DP backed off %d times, the tree has a plan of objective %.6f", st.Backoffs, sol.Objective)
							case sol.Status == milp.Optimal:
								proven++
								if math.Abs(st.Objective-sol.Objective) > tol {
									t.Errorf("DP objective %.9f, literal optimum %.9f", st.Objective, sol.Objective)
								}
							default:
								bracketed++
								if st.Objective < sol.Objective-tol || st.Objective > sol.Bound+tol {
									t.Errorf("DP objective %.9f outside the tree's [incumbent %.9f, bound %.9f]",
										st.Objective, sol.Objective, sol.Bound)
								}
							}
						})
					}
				}
			}
		}
	}
	if proven == 0 || infeasible == 0 {
		t.Fatalf("grid has %d proven optima and %d infeasible cases; want both", proven, infeasible)
	}
	t.Logf("%d proven optima, %d infeasible, %d bracketed by an unfinished tree", proven, infeasible, bracketed)
}

// TestFig10FailureIsAnError pins that a Fig. 10 point is timed out only when
// its search runs out of time: demand ten times the sweep's is proven
// infeasible, and that is an error, not a timed-out point.
func TestFig10FailureIsAnError(t *testing.T) {
	in := fig10Input(4, 9, 3)
	for q := range in.Demand {
		in.Demand[q] *= 10
	}
	pt, err := fig10Point(in, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("demand above capacity: point %+v, error %v; want the infeasibility as an error", pt, err)
	}
}
