package allocator

import (
	"math"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/milp"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
)

// TestBackoffOnlyWhenInfeasible pins that demand is shed only when no plan
// serves it. In periods 3, 5, 6 and 7 of the replay trace neither the
// previous plan nor the local search packs the demand, so backing off on
// their failure would shed demand (two to four β steps) that the exact
// solve serves in full, as it does every other period. The 4-device
// cluster at 110 QPS really is overloaded: every step the back-off takes
// is one the DP proves infeasible.
func TestBackoffOnlyWhenInfeasible(t *testing.T) {
	m := NewMILP(nil)
	for p, in := range replayInputs(7) {
		plan, err := m.Allocate(in)
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if plan.DemandScale != 1 || plan.Stats.Backoffs != 0 {
			t.Errorf("period %d: demand scale %.4f after %d back-offs, want 1 after 0", p, plan.DemandScale, plan.Stats.Backoffs)
		}
		if err := plan.Check(in); err != nil {
			t.Errorf("period %d: %v", p, err)
		}
	}

	in := defaultClusterInput(110)
	in.Cluster = cluster.ScaledTestbed(4)
	plan, err := NewMILP(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Backoffs != 242 || plan.DemandScale >= 1 {
		t.Errorf("4 devices at 110 QPS: %d back-offs to scale %.4f, want 242 to below 1", plan.Stats.Backoffs, plan.DemandScale)
	}
	if err := plan.Check(in); err != nil {
		t.Error(err)
	}
}

// TestExactAtLeastMILPOnReplay holds the DP to the branch-and-bound it
// replaced on the benchmark's shape: three diurnal seeds × eight periods,
// each solved by both from the same previous plan. Every DP plan carries
// its certificate. The tree, under the benchmark's stall limit, either
// returns an incumbent the DP's full-demand optimum is at least as good as,
// or finds no heuristic warm start and so would have backed off — which the
// DP does only where it proves the full demand infeasible.
func TestExactAtLeastMILPOnReplay(t *testing.T) {
	higher, equal, unpacked, served := 0, 0, 0, 0
	for _, seed := range []uint64{7, 1, 2} {
		m := NewMILP(&MILPOptions{StallNodes: 400})
		for p, in := range replayInputs(seed) {
			tree, fromDP := treeSolve(t, m, in)
			plan, err := m.Allocate(in)
			if err != nil {
				t.Fatalf("seed %d period %d: %v", seed, p, err)
			}
			if err := plan.Check(in); err != nil {
				t.Errorf("seed %d period %d: %v", seed, p, err)
			}
			st := plan.Stats
			if !plan.Optimal || st.Bound != st.Objective || st.RelGap != 0 || st.Nodes != 0 {
				t.Errorf("seed %d period %d: plan without its certificate: optimal=%v %+v", seed, p, plan.Optimal, st)
			}
			switch tol := 1e-9 * st.Objective; {
			case fromDP:
				unpacked++
				if st.Backoffs == 0 {
					served++
				}
			case st.Backoffs != 0:
				t.Errorf("seed %d period %d: backed off %d times though the tree's warm start serves the full demand", seed, p, st.Backoffs)
			case st.Objective < tree.Stats.Objective-tol:
				t.Errorf("seed %d period %d: DP objective %.6f below the tree's incumbent %.6f", seed, p, st.Objective, tree.Stats.Objective)
			case st.Objective > tree.Stats.Objective+tol:
				higher++
			default:
				equal++
			}
		}
	}
	t.Logf("DP above the tree's incumbent in %d periods, equal in %d; the tree had no heuristic warm start in %d, of which the DP served %d in full",
		higher, equal, unpacked, served)
	if served == 0 {
		t.Error("no period where the heuristics fail and the DP serves the full demand; the replay exercises nothing")
	}
}

// TestLargeClusterHonoursTimeLimit pins the solver choice and the safety
// net a live control loop sets. On the 20-device testbed the DP answers (no
// tree). On the 80-device one its work is past exactWorkLimit, so the plan
// comes from branch-and-bound, which stops at TimeLimit with its incumbent
// and says so: TimeLimited, not optimal.
func TestLargeClusterHonoursTimeLimit(t *testing.T) {
	const limit = 200 * time.Millisecond
	for _, devices := range []int{20, 80} {
		in := defaultClusterInput(400 * float64(devices) / 20)
		in.Cluster = cluster.ScaledTestbed(devices)
		m := NewMILP(&MILPOptions{TimeLimit: limit})
		a, _ := m.aggregate(in, flooredDemand(in))
		dp := a.space.exactFits()
		if dp != (devices == 20) {
			t.Fatalf("%d devices: within the DP's work limit = %v", devices, dp)
		}
		plan, err := m.Allocate(in)
		if err != nil {
			t.Fatalf("%d devices: %v", devices, err)
		}
		if err := plan.Check(in); err != nil {
			t.Errorf("%d devices: %v", devices, err)
		}
		st := plan.Stats
		t.Logf("%d devices: %v, %d nodes, time-limited %v, back-offs %d", devices, plan.SolveTime, st.Nodes, st.TimeLimited, st.Backoffs)
		if dp {
			if st.Nodes != 0 || !plan.Optimal {
				t.Errorf("%d devices: want the DP's certificate, got optimal=%v %+v", devices, plan.Optimal, st)
			}
			continue
		}
		if st.Nodes == 0 || !st.TimeLimited || plan.Optimal {
			t.Errorf("%d devices: want a time-limited tree, got optimal=%v %+v", devices, plan.Optimal, st)
		}
		// The limit bounds the search; the heuristics and the root
		// relaxation in front of it take tens of milliseconds.
		if plan.SolveTime > limit+time.Second {
			t.Errorf("%d devices: solve took %v under a %v limit", devices, plan.SolveTime, limit)
		}
	}
}

// TestExactTieRule checks the documented tie rule against brute force on
// the small fixture: of all count vectors that serve the demand, the DP
// returns one with the best objective, and among those (to tieTol) the most
// provisioned capacity. The Clipper-HT filter makes every feasible plan tie
// on the objective, so capacity alone decides: every device hosts something.
func TestExactTieRule(t *testing.T) {
	ht := extremeVariantFilter(false)
	for _, tc := range []struct {
		name   string
		filter func(VariantRef, *Input) bool
		demand []float64
	}{
		{"all variants, light", nil, []float64{5, 5}},
		{"all variants, heavy", nil, []float64{120, 60}},
		{"clipper-ht", ht, []float64{20, 10}},
	} {
		in := testInput(t, tc.demand)
		m := NewMILP(&MILPOptions{Filter: tc.filter})
		a, _ := m.aggregate(in, flooredDemand(in))
		s := a.space
		counts, ok := s.exact()
		if !ok {
			t.Fatalf("%s: DP found no plan", tc.name)
		}
		tie := s.tieRule()
		got := planValue(s, counts)
		var best value
		found := false
		bruteForce(s, func(c []int) {
			if _, feasible := s.objective(c); feasible {
				if v := planValue(s, c); !found || tie.beats(v, best) {
					best, found = v, true
				}
			}
		})
		if tie.beats(best, got) || tie.beats(got, best) {
			t.Errorf("%s: DP plan (objective %.6f, capacity %.3f), brute force (%.6f, %.3f)", tc.name, got.obj, got.cap, best.obj, best.cap)
		}
		if tc.filter != nil {
			plan, err := m.Allocate(in)
			if err != nil {
				t.Fatal(err)
			}
			for d, h := range plan.Hosted {
				if h == nil {
					t.Errorf("%s: device %d idle though spare capacity breaks the tie", tc.name, d)
				}
			}
		}
	}
}

// planValue is counts' objective and provisioned capacity.
func planValue(s *searchSpace, counts []int) value {
	obj, _ := s.objective(counts)
	v := value{obj: obj}
	for i, c := range counts {
		v.cap += s.pairs[i].peak * float64(c)
	}
	return v
}

// bruteForce calls visit with every count vector that respects the group
// rows.
func bruteForce(s *searchSpace, visit func([]int)) {
	counts := make([]int, len(s.pairs))
	used := make([]int, len(s.groupSize))
	var rec func(i int)
	rec = func(i int) {
		if i == len(counts) {
			visit(counts)
			return
		}
		g := s.pairs[i].g
		for c := 0; used[g]+c <= s.groupSize[g]; c++ {
			counts[i] = c
			used[g] += c
			rec(i + 1)
			used[g] -= c
		}
		counts[i] = 0
	}
	rec(0)
}

// FuzzExactAgainstMILP is the DP's oracle: on small generated clusters (one
// or two device groups of at most four devices or three of at most three,
// at most three families)
// with random demand, with and without a previous plan, switch costs and a
// variant filter, the DP's optimum equals the aggregated MILP's proven
// optimum (gap 0, no stall limit) to 1e-6, both agree when no plan serves
// the demand, and both plans pass Check. `go test` replays
// testdata/fuzz/FuzzExactAgainstMILP; -fuzz explores.
func FuzzExactAgainstMILP(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		in, opts, prevDemand := exactFuzzInput(seed, shape)
		m := NewMILP(opts)
		demand := flooredDemand(in)
		if a, _ := m.aggregate(in, demand); a == nil {
			return // some family has demand and no admissible pair: nothing to solve
		}
		if prevDemand != nil {
			prevIn := *in
			prevIn.Demand = prevDemand
			if _, err := m.Allocate(&prevIn); err != nil {
				t.Fatalf("previous plan: %v", err)
			}
		}
		a, _ := m.aggregate(in, demand)
		counts, feasible := a.space.exact()
		sol := milp.Solve(a.problem(0), &milp.Options{RelGap: 0})
		switch {
		case sol.Status == milp.Infeasible:
			if feasible {
				t.Fatalf("MILP proves the demand infeasible, DP found counts %v", counts)
			}
			return
		case sol.Status != milp.Optimal:
			t.Fatalf("MILP ended with status %v after %d nodes", sol.Status, sol.Nodes)
		case !feasible:
			t.Fatalf("DP found no plan, MILP's optimum is %.6f", sol.Objective)
		}
		obj, _ := a.space.objective(counts)
		if math.Abs(obj-sol.Objective) > 1e-6*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("DP objective %.9f, MILP optimum %.9f", obj, sol.Objective)
		}
		served, _ := a.space.fill(counts)
		if err := m.expand(in, a, counts, served).Check(in); err != nil {
			t.Fatalf("DP plan: %v", err)
		}
		treeCounts, treeServed := a.fromVector(sol.X)
		if err := m.expand(in, a, treeCounts, treeServed).Check(in); err != nil {
			t.Fatalf("MILP plan: %v", err)
		}
	})
}

// exactFuzzInput derives a small instance from the fuzzer's inputs. shape's
// bits choose a previous plan (bit 0), switch costs off (bit 1) and a
// variant filter (bit 2); seed draws the rest.
func exactFuzzInput(seed uint64, shape uint8) (*Input, *MILPOptions, []float64) {
	rng := numeric.NewRNG(seed)
	types := []cluster.DeviceType{cluster.CPU, cluster.GTX1080Ti, cluster.V100}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	groups, most := 1+rng.Intn(3), 4
	if groups == 3 {
		most = 3 // keeps the gap-0 tree fast
	}
	var counts []cluster.TypeCount
	for g := 0; g < groups; g++ {
		counts = append(counts, cluster.TypeCount{Type: types[g], Count: 1 + rng.Intn(most)})
	}
	zoo := models.Zoo()
	rng.Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
	fams := zoo[:1+rng.Intn(3)]
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 1.5+2*rng.Float64())
		if rng.Intn(5) > 0 {
			demand[q] = 150 * rng.Float64()
		}
	}
	in := &Input{Cluster: cluster.New(counts), Families: fams, SLOs: slos, Demand: demand}
	opts := &MILPOptions{}
	var prevDemand []float64
	if shape&1 != 0 {
		prevDemand = make([]float64, len(fams))
		for q := range prevDemand {
			prevDemand[q] = 100 * rng.Float64()
		}
	}
	if shape&2 != 0 {
		opts.SwitchCost = -1
	}
	if shape&4 != 0 {
		keep := map[string]bool{}
		for _, ref := range in.Variants() {
			keep[ref.Variant.ID()] = rng.Intn(3) > 0
		}
		opts.Filter = func(ref VariantRef, _ *Input) bool { return keep[ref.Variant.ID()] }
	}
	return in, opts, prevDemand
}
