package allocator

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
				t.Errorf("seed %d period %d: backed off %d times though the local search serves the full demand", seed, p, st.Backoffs)
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

// TestLargeClusterPlansByLocalSearch pins the solver choice of the control
// loop. On the 20-device testbed the DP answers every period of the replay
// chain with its certificate. On 60 and 80 devices its work is past
// exactWorkLimit, so the local search plans: no tree (Nodes 0), no proven
// bound (RelGap -1), not optimal, and the same plan from two fresh
// allocators, period by period, since no clock feeds it.
func TestLargeClusterPlansByLocalSearch(t *testing.T) {
	for _, devices := range []int{20, 60, 80} {
		allocs := [2]*MILP{NewMILP(nil), NewMILP(nil)}
		for p, in := range replayInputsAt(7, devices) {
			a, _ := allocs[0].aggregate(in, flooredDemand(in))
			if dp := a.space.exactFits(); dp != (devices == 20) {
				t.Fatalf("%d devices: within the DP's work limit = %v", devices, dp)
			}
			var plans [2]*Allocation
			for k, m := range allocs {
				plan, err := m.Allocate(in)
				if err != nil {
					t.Fatalf("%d devices, period %d: %v", devices, p, err)
				}
				if err := plan.Check(in); err != nil {
					t.Errorf("%d devices, period %d: %v", devices, p, err)
				}
				plans[k] = plan
			}
			requireSamePlan(t, p, plans[0], plans[1])
			plan, st := plans[0], plans[0].Stats
			switch {
			case devices == 20:
				if !plan.Optimal || st.Nodes != 0 || st.RelGap != 0 || st.Bound != st.Objective {
					t.Errorf("%d devices, period %d: want the DP's certificate, got optimal=%v %+v", devices, p, plan.Optimal, st)
				}
			case plan.Optimal || st.Nodes != 0 || st.RelGap != -1 || st.Bound != 0 || st.Objective <= 0:
				t.Errorf("%d devices, period %d: want a local-search plan without a bound, got optimal=%v %+v", devices, p, plan.Optimal, st)
			}
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
		counts, ok := s.exact(new(dpScratch))
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
		counts, feasible := a.space.exact(&m.dp)
		sol := milp.Solve(a.problem(), &milp.Options{RelGap: 0})
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

// referenceFamilyTable is familyTable's oracle: each layer generates every
// child of every entry into one slice, groups the children by usage vector
// with a counting sort, sorts each group into scan order and scans it
// (referenceAppendFrontier). familyTable must build the same arena, entry
// for entry, and the same best and val.
func (s *searchSpace) referenceFamilyTable(us *usageSpace, tie tieRule, pairs []int, demand float64) *familyTable {
	ft := &familyTable{}
	root := frontierEntry{rem: demand, parent: -1}
	if root.rem <= 1e-9 {
		root.rem = 0
	}
	ft.arena = append(ft.arena, root)
	lo, hi := 0, 1
	var children []frontierEntry
	for j, i := range pairs {
		pr := s.pairs[i]
		acc := s.refs[pr.r].Variant.Accuracy
		next, last := 0.0, j == len(pairs)-1
		if !last {
			next = s.refs[s.pairs[pairs[j+1]].r].Variant.Accuracy
		}
		var sc float64
		prev := 0
		if s.prev != nil && s.switchCost != nil {
			sc, prev = s.switchCost[i], s.prev[i]
		}
		children = children[:0]
		for e := lo; e < hi; e++ {
			ent := ft.arena[e]
			free := us.size[pr.g] - us.of(int(ent.state), pr.g)
			for n := 0; n <= free; n++ {
				take := math.Min(ent.rem, pr.peak*float64(n))
				c := frontierEntry{
					rem:    ent.rem - take,
					val:    value{ent.val.obj + acc*take, ent.val.cap + pr.peak*float64(n)},
					state:  ent.state + int32(n*us.stride[pr.g]),
					parent: int32(e),
					n:      int32(n),
				}
				if c.rem <= 1e-9 {
					c.rem = 0
				}
				if n > prev {
					c.val.obj -= float64(n-prev) * sc
				}
				if last && c.rem > 0 {
					continue // the family's demand is left unserved
				}
				children = append(children, c)
			}
		}
		lo = len(ft.arena)
		ft.arena = referenceAppendFrontier(ft.arena, children, us.n, tie, next)
		hi = len(ft.arena)
	}
	ft.best = make([]int32, us.n)
	ft.val = make([]value, us.n)
	for u := range ft.best {
		ft.best[u], ft.val[u] = -1, none
	}
	for e := lo; e < hi; e++ {
		ent := ft.arena[e]
		if ent.rem > 0 {
			continue
		}
		if b := ft.best[ent.state]; b < 0 || tie.beats(ent.val, ft.val[ent.state]) {
			ft.best[ent.state], ft.val[ent.state] = int32(e), ent.val
		}
	}
	return ft
}

// referenceAppendFrontier appends to arena the children that no other child
// of the same usage vector dominates, with next the accuracy of the
// following pair. A counting sort groups the children by usage vector; each
// group is sorted by rem ascending, score descending, capacity descending
// and generation order (parent, n) and scanned once.
func referenceAppendFrontier(arena, children []frontierEntry, states int, tie tieRule, next float64) []frontierEntry {
	score := func(e *frontierEntry) value { return value{e.val.obj + next*e.rem, e.val.cap} }
	offset := make([]int, states+1)
	for k := range children {
		offset[children[k].state+1]++
	}
	for st := 0; st < states; st++ {
		offset[st+1] += offset[st]
	}
	sorted := make([]frontierEntry, len(children))
	fill := slices.Clone(offset[:states])
	for k := range children {
		st := children[k].state
		sorted[fill[st]] = children[k]
		fill[st]++
	}
	for st := 0; st < states; st++ {
		bucket := sorted[offset[st]:offset[st+1]]
		slices.SortFunc(bucket, func(a, b frontierEntry) int {
			if a.rem != b.rem {
				return cmp.Compare(a.rem, b.rem)
			}
			sa, sb := score(&a), score(&b)
			if sa.obj != sb.obj {
				return cmp.Compare(sb.obj, sa.obj)
			}
			if sa.cap != sb.cap {
				return cmp.Compare(sb.cap, sa.cap)
			}
			if a.parent != b.parent {
				return cmp.Compare(a.parent, b.parent)
			}
			return cmp.Compare(a.n, b.n)
		})
		start := len(arena)
		for k := range bucket {
			c := &bucket[k]
			sc := score(c)
			dominated := false
			for a := len(arena) - 1; a >= start; a-- {
				if !tie.beats(sc, score(&arena[a])) {
					dominated = true
					break
				}
			}
			if !dominated {
				arena = append(arena, *c)
			}
		}
	}
	return arena
}

// matchFamilyTables builds every family's table of s both ways — for the
// family's demand, or for none with zeroDemand — and fails t at the first
// difference: arena length or entry (floats to the bit), best or val.
// familyTable builds each table twice, on fresh buffers and on dirty's,
// which hold another shape's tables. It returns how many served entries the
// tables keep after the first of their layer and usage vector: the
// near-ties familyTable's second pass adds.
func matchFamilyTables(t *testing.T, s *searchSpace, zeroDemand bool, dirty *dpScratch) (nearTies int) {
	t.Helper()
	us := newUsageSpace(s.groupSize)
	tie := s.tieRule()
	for q, pairs := range s.familyPairs() {
		demand := s.demand[q]
		if zeroDemand {
			demand = 0
		}
		want := s.referenceFamilyTable(us, tie, pairs, demand)
		var got familyTable
		s.familyTable(&got, new(layerScratch), us, tie, pairs, demand)
		if diff := tableDiff(&got, want); diff != "" {
			t.Fatalf("family %d: %s", q, diff)
		}
		s.familyTable(&dirty.tables[q], &dirty.layers[0], us, tie, pairs, demand)
		if diff := tableDiff(&dirty.tables[q], want); diff != "" {
			t.Fatalf("family %d, on dirty buffers: %s", q, diff)
		}
		layer := make([]int, len(got.arena))
		for e, g := range got.arena {
			if e == 0 {
				continue
			}
			layer[e] = layer[g.parent] + 1
			if p := got.arena[e-1]; g.rem == 0 && p.rem == 0 && p.state == g.state && layer[e-1] == layer[e] {
				nearTies++
			}
		}
	}
	return nearTies
}

// tableDiff describes the first difference between two family tables —
// arena length or entry (floats to the bit), best or val — or returns "".
func tableDiff(got, want *familyTable) string {
	bits := math.Float64bits
	if len(got.arena) != len(want.arena) {
		return fmt.Sprintf("arena of %d entries, want %d", len(got.arena), len(want.arena))
	}
	for e, g := range got.arena {
		w := want.arena[e]
		if bits(g.rem) != bits(w.rem) || bits(g.val.obj) != bits(w.val.obj) || bits(g.val.cap) != bits(w.val.cap) ||
			g.state != w.state || g.parent != w.parent || g.n != w.n {
			return fmt.Sprintf("arena entry %d is %+v, want %+v", e, g, w)
		}
	}
	if len(got.best) != len(want.best) || len(got.val) != len(want.val) {
		return fmt.Sprintf("best and val of %d and %d usage vectors, want %d and %d", len(got.best), len(got.val), len(want.best), len(want.val))
	}
	for u := range got.best {
		if got.best[u] != want.best[u] || bits(got.val[u].obj) != bits(want.val[u].obj) || bits(got.val[u].cap) != bits(want.val[u].cap) {
			return fmt.Sprintf("usage %d: best %d %+v, want %d %+v", u, got.best[u], got.val[u], want.best[u], want.val[u])
		}
	}
	return ""
}

// dirtied returns a one-worker scratch that has built s's family tables at
// twice its group sizes: its buffers are larger than s needs and hold
// another shape's entries.
func dirtied(s *searchSpace) *dpScratch {
	big := *s
	big.groupSize = make([]int, len(s.groupSize))
	for g, sz := range s.groupSize {
		big.groupSize[g] = 2 * sz
	}
	dp := &dpScratch{workers: 1}
	dp.startTables(&big, newUsageSpace(big.groupSize), big.tieRule(), big.familyPairs())
	dp.awaitTables()
	return dp
}

// dpMILP is the MILP behind the DP-backed allocator name, so a test can
// chain its plans period after period (Clipper's own Allocate plans once).
func dpMILP(t *testing.T, name string, opts *MILPOptions) *MILP {
	t.Helper()
	alloc, err := ByName(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	switch a := alloc.(type) {
	case *MILP:
		return a
	case *Clipper:
		return a.inner
	case *WithoutSelection:
		return a.inner
	case *WithoutAssignment:
		return a.inner
	}
	t.Fatalf("%s is not backed by the DP", name)
	return nil
}

// TestFamilyTableMatchesReference holds familyTable to the layer-wide sort
// it replaced on the benchmark's shape: every family's table of every
// period of a chained replay (each period planned from the previous plan),
// for `ilp`, `proteus-wo-qa` and the allocators whose variant filters pin
// each family to one variant, with switch costs on and off. Without switch
// costs, plans that serve the demand at the same accuracy on different
// pairs tie to rounding, which is what the near-tie pass keeps; with them,
// the chained replay reaches no near-tie. Clipper-HA and w/o-MS back off
// ≈ 260 times a period on this trace, so they chain three periods. Each
// table is built on fresh buffers and on buffers first used at twice the
// cluster's group sizes, then by every table before it.
func TestFamilyTableMatchesReference(t *testing.T) {
	nearTies := 0
	noSwitch := &MILPOptions{SwitchCost: -1}
	for _, tc := range []struct {
		name    string
		opts    *MILPOptions
		periods int
	}{
		{"ilp", nil, 8}, {"ilp", noSwitch, 8},
		{"clipper-ht", nil, 8}, {"clipper-ht", noSwitch, 8},
		{"proteus-wo-qa", noSwitch, 8},
		{"clipper-ha", nil, 3}, {"proteus-wo-ms", noSwitch, 3},
	} {
		m := dpMILP(t, tc.name, tc.opts)
		var dirty *dpScratch
		for p, in := range replayInputs(7)[:tc.periods] {
			a, _ := m.aggregate(in, flooredDemand(in))
			if dirty == nil {
				dirty = dirtied(a.space)
			}
			nearTies += matchFamilyTables(t, a.space, false, dirty)
			if _, err := m.Allocate(in); err != nil {
				t.Fatalf("%s period %d: %v", tc.name, p, err)
			}
		}
	}
	t.Logf("%d served near-ties kept after their usage vector's first", nearTies)
	if nearTies == 0 {
		t.Error("no table keeps a served near-tie; the second pass is never reached")
	}
}

// FuzzFamilyTableAgainstReference holds familyTable to the reference on
// generated clusters of up to 10/5/5 devices and up to the whole zoo, with
// random demand. shape's bits choose a previous plan (bit 0), switch costs
// off (bit 1), a variant filter (bits 2–3: none, random, least or most
// accurate) and zero demand for every family (bit 4). Each table is also
// built on buffers first used at twice the generated group sizes. `go test`
// replays testdata/fuzz/FuzzFamilyTableAgainstReference; -fuzz explores.
func FuzzFamilyTableAgainstReference(f *testing.F) {
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
		for q, fam := range fams {
			slos[q] = profiles.FamilySLO(fam, 1.5+2*rng.Float64())
			if rng.Intn(5) > 0 {
				demand[q] = 400 * rng.Float64() / float64(len(fams))
			}
		}
		in := &Input{Cluster: cluster.New(counts), Families: fams, SLOs: slos, Demand: demand}
		opts := &MILPOptions{}
		if shape&2 != 0 {
			opts.SwitchCost = -1
		}
		switch shape >> 2 & 3 {
		case 1:
			keep := map[string]bool{}
			for _, ref := range in.Variants() {
				keep[ref.Variant.ID()] = rng.Intn(3) > 0
			}
			opts.Filter = func(ref VariantRef, _ *Input) bool { return keep[ref.Variant.ID()] }
		case 2:
			opts.Filter = extremeVariantFilter(false)
		case 3:
			opts.Filter = extremeVariantFilter(true)
		}
		m := NewMILP(opts)
		a, short := m.aggregate(in, flooredDemand(in))
		for ; a == nil && short != nil && len(in.Families) > 1; a, short = m.aggregate(in, flooredDemand(in)) {
			// Drop a family no admissible pair serves.
			q := slices.Index(short, true)
			in.Families = slices.Delete(in.Families, q, q+1)
			in.SLOs = slices.Delete(in.SLOs, q, q+1)
			in.Demand = slices.Delete(in.Demand, q, q+1)
		}
		if a == nil {
			return // no pair at all
		}
		if shape&1 != 0 {
			prevIn := *in
			prevIn.Demand = make([]float64, len(in.Families))
			for q := range prevIn.Demand {
				prevIn.Demand[q] = 400 * rng.Float64() / float64(len(in.Families))
			}
			if _, err := m.Allocate(&prevIn); err != nil {
				t.Fatalf("previous plan: %v", err)
			}
			a, _ = m.aggregate(in, flooredDemand(in))
		}
		matchFamilyTables(t, a.space, shape&16 != 0, dirtied(a.space))
	})
}

// TestExactBytesCeiling keeps what an exact solve allocates on a replay
// period under two ceilings. On a scratch warm from a solve of the same
// shape — a MILP's from its second solve on — a solve allocates its counts,
// the families' pair lists and the workers' start: ≈ 4 KB, under a 0.1 MB
// ceiling that allocating the tables and the combination's buffers per
// solve (≈ 2.2 MB) breaks. A cold solve, which grows every buffer,
// allocates ≈ 2.2 MB, under a 2.5 MB ceiling that a layer-wide children
// slice sorted through a second copy (5.47 MB) breaks. Both hold under
// -race.
func TestExactBytesCeiling(t *testing.T) {
	in := replayInputs(7)[3]
	m := NewMILP(nil)
	a, _ := m.aggregate(in, flooredDemand(in))
	if _, ok := a.space.exact(&m.dp); !ok {
		t.Fatal("DP found no plan")
	}
	const calls = 5
	perCall := func(dp func() *dpScratch) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			a.space.exact(dp())
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls / 1e6
	}
	warm := perCall(func() *dpScratch { return &m.dp })
	cold := perCall(func() *dpScratch { return new(dpScratch) })
	t.Logf("%.3f MB per warm exact solve, %.3f MB per cold one", warm, cold)
	if warm > 0.1 {
		t.Errorf("%.3f MB per warm exact solve, ceiling 0.1 MB", warm)
	}
	if cold > 2.5 {
		t.Errorf("%.3f MB per cold exact solve, ceiling 2.5 MB", cold)
	}
}

// TestExactSameAtEveryWorkerCount holds the concurrent table build to the
// serial one. On chained replays, each period planned from the previous
// plan — seeds 1–15 at 20 devices and the first three periods of seed 7 at
// 40 — exact at 1, 2 and 9 workers must return the counts of a fresh
// one-worker solve and build every table entry for entry, to the bit. Each
// worker count solves on a fresh scratch and on one kept across the chains
// that first solved a 40- and then a 4-device shape. A last leg triples the
// demand of seed 7's last period, which the combination proves infeasible at
// its third family, while later tables may still be in the making: exact
// must return only once every table is built, and Allocate, whose first four
// β back-off steps repeat that proof, must leave no worker running.
func TestExactSameAtEveryWorkerCount(t *testing.T) {
	workers := []int{1, 2, 9}
	dirty := make([]*dpScratch, len(workers))
	for k, w := range workers {
		dirty[k] = &dpScratch{workers: w}
		for _, devices := range []int{40, 4} {
			in := replayInputsAt(3, devices)[0]
			a, _ := NewMILP(nil).aggregate(in, flooredDemand(in))
			a.space.exact(dirty[k])
		}
	}
	type chain struct {
		seed             uint64
		devices, periods int
	}
	chains := []chain{{7, 40, 3}}
	for seed := uint64(1); seed <= 15; seed++ {
		chains = append(chains, chain{seed, 20, 8})
	}
	for _, c := range chains {
		m := NewMILP(nil)
		for p, in := range replayInputsAt(c.seed, c.devices)[:c.periods] {
			a, _ := m.aggregate(in, flooredDemand(in))
			ref := &dpScratch{workers: 1}
			want, wantOK := a.space.exact(ref)
			families := len(in.Families)
			for k, w := range workers {
				for _, dp := range []*dpScratch{{workers: w}, dirty[k]} {
					leg := fmt.Sprintf("seed %d, %d devices, period %d, %d workers (dirty %v)", c.seed, c.devices, p, w, dp == dirty[k])
					got, ok := a.space.exact(dp)
					if ok != wantOK || !slices.Equal(got, want) {
						t.Fatalf("%s: counts %v (%v), one worker %v (%v)", leg, got, ok, want, wantOK)
					}
					for q := range families {
						if diff := tableDiff(&dp.tables[q], &ref.tables[q]); diff != "" {
							t.Fatalf("%s: family %d: %s", leg, q, diff)
						}
					}
				}
			}
			if _, err := m.Allocate(in); err != nil {
				t.Fatalf("seed %d, %d devices, period %d: %v", c.seed, c.devices, p, err)
			}
		}
	}

	in := replayInputs(7)[7]
	for q := range in.Demand {
		in.Demand[q] *= 3
	}
	a, _ := NewMILP(nil).aggregate(in, flooredDemand(in))
	ref := &dpScratch{workers: 1}
	if _, ok := a.space.exact(ref); ok {
		t.Fatal("three times seed 7's last demand is served")
	}
	baseline := runtime.NumGoroutine()
	for k, w := range workers {
		for _, dp := range []*dpScratch{{workers: w}, dirty[k]} {
			leg := fmt.Sprintf("tripled demand, %d workers (dirty %v)", w, dp == dirty[k])
			if got, ok := a.space.exact(dp); ok || got != nil {
				t.Fatalf("%s: counts %v (%v), want none", leg, got, ok)
			}
			for q := range in.Families {
				if diff := tableDiff(&dp.tables[q], &ref.tables[q]); diff != "" {
					t.Fatalf("%s: family %d: %s", leg, q, diff)
				}
			}
		}
		m := NewMILP(&MILPOptions{MaxBackoffs: 4})
		m.dp.workers = w
		if _, err := m.Allocate(in); err == nil {
			t.Fatalf("tripled demand, %d workers: served after 4 back-offs", w)
		}
		// A worker that has stopped may take a moment to exit.
		for try := 0; runtime.NumGoroutine() > baseline; try++ {
			if try == 100 {
				t.Fatalf("tripled demand, %d workers: %d goroutines after Allocate, %d before", w, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
