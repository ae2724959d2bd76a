package allocator

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Exact solution of the aggregated model (DESIGN.md "Exact allocation by
// dynamic programming"). Given the device count n_i of every (group,
// variant) pair, the paper's objective splits by family: each family fills
// its demand accuracy-first and pays its own switch costs
// (searchSpace.objective). Only the group rows Σ_i n_i ≤ |g| couple the
// families. So the optimum is a max-plus combination, over group-usage
// vectors u ≤ (|g|), of one table per family:
//
//   - familyTable computes W_q(u), the best value family q reaches with
//     exactly u_g devices of every group g, by a layered frontier over the
//     family's pairs in fill order;
//   - exact combines the tables family by family over the Π(|g|+1) usage
//     vectors and walks the choices back to per-pair counts.
//
// exact builds the tables concurrently (dpScratch.startTables) and combines
// each, in family order, as soon as it is built; a table depends on its
// family's inputs alone and the combination's order is fixed, so every
// table and every plan is the same at any worker count.
//
// Tie rule, everywhere: of two plans whose objectives agree to tieTol, the
// one that provisions more capacity (Σ peak·n over all pairs) wins; of two
// that also agree on capacity, the one the DP meets first. Ties are the
// common case — every feasible plan of a static baseline scores the same —
// so the rule decides most plans' spare devices.

// tieTol is the tolerance under which two objectives (or capacities) tie,
// relative to the largest the step can reach: 100 % accuracy on all demand
// (every device at its largest peak).
const tieTol = 1e-9

// value is a plan's (or a partial plan's) objective and provisioned
// capacity, compared under the tie rule.
type value struct{ obj, cap float64 }

func (a value) plus(b value) value { return value{a.obj + b.obj, a.cap + b.cap} }

// none is the value of no plan: every plan beats it, and neither it nor a
// plan plus it beats anything.
var none = value{math.Inf(-1), math.Inf(-1)}

// tieRule holds one step's absolute tie tolerances.
type tieRule value

func (s *searchSpace) tieRule() tieRule {
	var t tieRule
	for _, d := range s.demand {
		t.obj += 100 * d
	}
	for _, pr := range s.pairs {
		t.cap += pr.peak * float64(s.groupSize[pr.g])
	}
	return tieRule{tieTol * math.Max(1, t.obj), tieTol * math.Max(1, t.cap)}
}

// beats reports whether a is strictly better than b under the tie rule.
func (t tieRule) beats(a, b value) bool {
	if d := a.obj - b.obj; d > t.obj {
		return true
	} else if d < -t.obj {
		return false
	}
	return a.cap > b.cap+t.cap
}

// usageSpace indexes the group-usage vectors u ≤ (|g|) in mixed radix:
// index(u) = Σ_g u_g·stride_g, so adding two vectors that fit adds their
// indices.
type usageSpace struct {
	size   []int // |g|
	stride []int
	n      int   // number of vectors, Π(|g|+1)
	usage  []int // usage[s*len(size)+g] is u_g of vector s
}

func newUsageSpace(size []int) *usageSpace {
	us := &usageSpace{size: size, stride: make([]int, len(size)), n: 1}
	for g, sz := range size {
		us.stride[g] = us.n
		us.n *= sz + 1
	}
	us.usage = make([]int, us.n*len(size))
	for s := 0; s < us.n; s++ {
		for g := range size {
			us.usage[s*len(size)+g] = s / us.stride[g] % (size[g] + 1)
		}
	}
	return us
}

func (us *usageSpace) of(s, g int) int { return us.usage[s*len(us.size)+g] }

// frontierEntry is one partial assignment of a family's pairs: the devices
// given to the pairs so far (state is their usage vector), the demand left
// unfilled and the value collected. parent and n rebuild the counts.
type frontierEntry struct {
	rem           float64
	val           value
	state, parent int32
	n             int32 // devices given to this layer's pair
}

// familyTable is W_q: best[u] is the arena index of the best complete
// assignment using exactly usage vector u, or -1 when none serves the demand.
type familyTable struct {
	pairs []int // the family's pair indices in fill order
	arena []frontierEntry
	best  []int32
	val   []value // val[u] is the value of best[u], none at -1
	reach []int   // reach[g] is the most of group g a usage vector with a best uses
}

// familyTable computes W_q for the family whose pairs, in fill order, are
// pairs. Layer j assigns 0…free devices to pairs[j], where free is what the
// entry's usage leaves of the pair's group, and keeps per usage vector only
// the entries no other entry dominates. With a' the accuracy of the next
// pair — the most any later pair earns per QPS of the demand left — entry A
// dominates B of the same usage when rem_A ≤ rem_B and
// val_A + a'·rem_A beats val_B + a'·rem_B under the tie rule: every
// completion of B is a completion of A (the same later counts, the same
// devices free), serves B's extra demand at no more than a' per QPS, and
// adds the same capacity to both.
//
// A layer's frontier is the scan of each usage vector t's children, in
// ascending t, sorted by rem ascending, score descending, capacity
// descending and generation order (parent, n): a child is kept unless an
// entry kept before it dominates it. The children of t are gathered from
// the previous layer's entries of usage t − n·stride_g, n = 0…u_g(t). Most
// have served the demand (rem 0) and head the order; of those the scan
// keeps the first and then only children that beat it under the tie rule
// (a near-tie in objective with more capacity), so a running best finds the
// first, a second pass the rare near-ties, and only those and the children
// with demand left are sorted.
//
// ft's and ls's buffers are reused: every entry the build reads it writes
// first, so the table does not depend on what they held.
func (s *searchSpace) familyTable(ft *familyTable, ls *layerScratch, us *usageSpace, tie tieRule, pairs []int, demand float64) {
	ft.pairs = pairs
	root := frontierEntry{rem: demand, parent: -1}
	if root.rem <= 1e-9 {
		root.rem = 0
	}
	ft.arena = append(ft.arena[:0], root)
	lo, hi := 0, 1
	// at[u]…at[u+1] are the previous layer's entries of usage vector u: a
	// layer sits in the arena by ascending usage vector.
	ls.at = sized(ls.at, us.n+1)
	at := ls.at
	// Column b holds the usage vectors b + m·stride_g, m = 0…|g|, that
	// differ from b in group g only: a target's parents are in its column,
	// at m ≤ its own. lowM[b] is the fewest m of a previous-layer entry in
	// column b, so a target below it has no parents and is skipped.
	ls.lowM = sized(ls.lowM, us.n)
	lowM := ls.lowM
	rest, ties := ls.rest, ls.ties
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
		stride := us.stride[pr.g]
		// child is entry e's child with n devices on the pair.
		child := func(e, n int) frontierEntry {
			ent := &ft.arena[e]
			take := pr.peak * float64(n)
			if ent.rem < take {
				take = ent.rem
			}
			c := frontierEntry{
				rem:    ent.rem - take,
				val:    value{ent.val.obj + acc*take, ent.val.cap + pr.peak*float64(n)},
				state:  ent.state + int32(n*stride),
				parent: int32(e),
				n:      int32(n),
			}
			if c.rem <= 1e-9 {
				c.rem = 0
			}
			if n > prev {
				c.val.obj -= float64(n-prev) * sc
			}
			return c
		}
		for b := range lowM {
			lowM[b] = math.MaxInt
		}
		e := lo
		for u := range us.n {
			at[u] = int32(e)
			if e < hi && int(ft.arena[e].state) == u {
				m := us.of(u, pr.g)
				b := u - m*stride
				lowM[b] = min(lowM[b], m)
				for e < hi && int(ft.arena[e].state) == u {
					e++
				}
			}
		}
		at[us.n] = int32(e)
		lo = len(ft.arena)
		for t := 0; t < us.n; t++ {
			k := us.of(t, pr.g)
			b := t - k*stride
			if k < lowM[b] {
				continue
			}
			// Pass one: the served children's first in scan order by a
			// running best, and the children with demand left. A served
			// child that beats first has an objective within tieTol of
			// first's, so of every earlier best's too (objectives only rise
			// along the running best), and more capacity than first:
			// tieCap, the most capacity of a served child within tieTol of
			// the best when met, tells whether pass two can find one.
			// Visiting the fewest devices on the pair first meets the best
			// early, as a switch cost only lowers the objective of more.
			// Served children are compared on scalars in frontierCompare's
			// order, and only the first is built: a served parent's child
			// takes nothing, so it costs two scalars.
			fe, fn := -1, 0 // first's parent and n; fe < 0 until one is met
			fObj, fCap := math.Inf(-1), math.Inf(-1)
			tieCap := math.Inf(-1)
			rest = rest[:0]
			for m := k; m >= lowM[b]; m-- {
				u, n := b+m*stride, k-m
				cost := 0.0
				if n > prev {
					cost = float64(n-prev) * sc
				}
				for e := int(at[u]); e < int(at[u+1]); e++ {
					var obj, cp float64
					if ent := &ft.arena[e]; ent.rem == 0 {
						obj, cp = ent.val.obj-cost, ent.val.cap+pr.peak*float64(n)
					} else if c := child(e, n); c.rem == 0 {
						obj, cp = c.val.obj, c.val.cap
					} else {
						if !last { // else the family's demand is left unserved
							rest = append(rest, c)
						}
						continue
					}
					if obj > fObj || obj == fObj && (cp > fCap || cp == fCap && e < fe) {
						fe, fn, fObj, fCap = e, n, obj, cp
					}
					if obj-fObj >= -tie.obj && cp > tieCap {
						tieCap = cp
					}
				}
			}
			start := len(ft.arena)
			if fe >= 0 {
				first := child(fe, fn)
				ft.arena = append(ft.arena, first)
				// Pass two: the served children that beat first.
				if tieCap > first.val.cap+tie.cap {
					ties = ties[:0]
					for m := k; m >= lowM[b]; m-- {
						u, n := b+m*stride, k-m
						for e := int(at[u]); e < int(at[u+1]); e++ {
							if c := child(e, n); c.rem == 0 && tie.beats(c.val, first.val) {
								ties = append(ties, c)
							}
						}
					}
					ft.arena = appendScanned(ft.arena, start, ties, tie, next)
				}
			}
			ft.arena = appendScanned(ft.arena, start, rest, tie, next)
		}
		hi = len(ft.arena)
	}
	ls.rest, ls.ties = rest, ties // keep what they grew to
	ft.best = sized(ft.best, us.n)
	ft.val = sized(ft.val, us.n)
	fill(ft.best, -1)
	fill(ft.val, none)
	ft.reach = sized(ft.reach, len(us.size))
	clear(ft.reach)
	for e := lo; e < hi; e++ {
		ent := ft.arena[e]
		if ent.rem > 0 {
			continue // only reachable with no pairs at all
		}
		if tie.beats(ent.val, ft.val[ent.state]) {
			ft.best[ent.state], ft.val[ent.state] = int32(e), ent.val
		}
		for g := range ft.reach {
			ft.reach[g] = max(ft.reach[g], us.of(int(ent.state), g))
		}
	}
}

// score is e's value plus what its remaining demand earns at most, at the
// next pair's accuracy.
func (e *frontierEntry) score(next float64) value {
	return value{e.val.obj + next*e.rem, e.val.cap}
}

// frontierCompare orders a layer's children for the scan: rem ascending,
// score descending, capacity descending, then generation order (parent,
// n). Two children of one layer never agree on (parent, n).
func frontierCompare(a, b *frontierEntry, next float64) int {
	if a.rem != b.rem {
		return cmp.Compare(a.rem, b.rem)
	}
	sa, sb := a.score(next), b.score(next)
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
}

// appendScanned sorts cands into scan order and appends to arena each one
// no entry of arena[start:] — the usage vector's entries kept so far, all
// earlier in the order — or kept before it dominates.
func appendScanned(arena []frontierEntry, start int, cands []frontierEntry, tie tieRule, next float64) []frontierEntry {
	slices.SortFunc(cands, func(a, b frontierEntry) int { return frontierCompare(&a, &b, next) })
	for k := range cands {
		c := &cands[k]
		sc := c.score(next)
		dominated := false
		for a := len(arena) - 1; a >= start; a-- {
			// Every kept entry has rem ≤ c.rem; it dominates c unless c's
			// score beats it.
			if !tie.beats(sc, arena[a].score(next)) {
				dominated = true
				break
			}
		}
		if !dominated {
			arena = append(arena, *c)
		}
	}
	return arena
}

// exactWorkLimit bounds the DP's combination work (exactFits): past it the
// local search plans the aggregated model (searchSpace.search), without a
// proven bound. The nine-family zoo needs 0.26 M on the 20-device testbed
// (groups 10/5/5), 9.1 M at 40 devices, 24 M at 50 and 83 M at 60
// (DESIGN.md "Cost and the work limit" has the times). The combination,
// not the tables, is most of a solve there, so the limit stays put.
const exactWorkLimit = 40_000_000

// exactFits reports whether the DP's work, families × Π_g (|g|+1)(|g|+2)/2
// — every usage vector paired with every family usage that fits beside
// it — stays within exactWorkLimit. It depends on the input's shape only,
// so the choice between the DP and the local search is as deterministic
// as the plan.
func (s *searchSpace) exactFits() bool {
	work := len(s.demand)
	for _, sz := range s.groupSize {
		work *= (sz + 1) * (sz + 2) / 2
		if work > exactWorkLimit {
			return false
		}
	}
	return true
}

// familyPairs returns each family's pair indices in fill order.
func (s *searchSpace) familyPairs() [][]int {
	famPairs := make([][]int, len(s.demand))
	for _, i := range s.order {
		q := s.refs[s.pairs[i].r].Family
		famPairs[q] = append(famPairs[q], i)
	}
	return famPairs
}

// dpScratch holds the DP's buffers between solves. A MILP owns one, and
// every exact solve of its Allocate calls — β back-off steps and control
// periods alike — reuses it, grown to the largest shape solved so far.
// Each buffer a solve reads it writes first, so a solve on a used scratch
// equals one on a fresh scratch bit for bit.
type dpScratch struct {
	// workers is the number of goroutines that build the family tables; 0
	// means GOMAXPROCS. Only tests set it.
	workers int
	// entries counts the frontier entries of the last solve's tables
	// (concurrentTablesMin); 0 before the first.
	entries     int
	us          *usageSpace    // rebuilt when the group sizes change
	tables      []familyTable  // one per family
	layers      []layerScratch // one per worker
	cur, nxt    []value
	choice      [][]int32 // choice[q][u]: family q's usage vector in the best way to u
	free, digit []int
	// The table build in progress (startTables).
	build   func(q, w int) // builds table q on worker w's layer buffers
	next    atomic.Int32   // the first family no one has claimed
	done    chan int       // the families the started workers have built
	built   []bool         // the families the caller knows to be built
	running sync.WaitGroup // the started workers
}

// layerScratch is one worker's layer buffers (familyTable).
type layerScratch struct {
	at         []int32
	lowM       []int
	rest, ties []frontierEntry
}

// sized returns s resliced to length n, growing its capacity when needed.
// Elements already in s's capacity are kept, so a slice of buffers keeps
// its buffers.
func sized[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// fill sets every element of s, which is not empty, to v.
func fill[T any](s []T, v T) {
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// usage returns the usage space of the group sizes, rebuilt only when they
// differ from the last solve's.
func (dp *dpScratch) usage(size []int) *usageSpace {
	if dp.us == nil || !slices.Equal(dp.us.size, size) {
		dp.us = newUsageSpace(slices.Clone(size))
	}
	return dp.us
}

// concurrentTablesMin is the fewest frontier entries, over all the tables
// of a scratch's last solve, at which its next solve builds them on several
// workers; a scratch's first solve always does. Below it a worker costs more
// than it saves. One exact solve on 2 vCPUs at GOMAXPROCS 2, one worker
// against two, three runs each: proteus-wo-ms on a 20-device replay period
// (162 entries) 78–98 against 102–107 µs, and an 8-device period with its
// group sizes set to 12 usage vectors (694 entries) 60–70 against
// 62–71 µs, 24 (1 225 entries) 113–124 against 114–121 µs, 27 (1 547)
// 153–177 against 144–151 µs and 36 (1 810) 203–210 against 167–176 µs.
// The default cluster's `ilp` periods hold ≈ 15 k.
const concurrentTablesMin = 1500

// startTables starts building every family's table into dp.tables on
// min(workers, families) goroutines — the caller's one of them — that take
// the next family index from a shared counter; on one when the last solve's
// tables held fewer than concurrentTablesMin entries. The caller builds
// tables only while it waits (awaitTable), so with one worker nothing is
// started. Each worker has its own layer buffers and each family its own
// table, so which worker builds a table does not change it.
func (dp *dpScratch) startTables(s *searchSpace, us *usageSpace, tie tieRule, famPairs [][]int) []familyTable {
	workers := dp.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if dp.entries > 0 && dp.entries < concurrentTablesMin {
		workers = 1
	}
	workers = max(1, min(workers, len(famPairs)))
	dp.tables = sized(dp.tables, len(famPairs))
	dp.layers = sized(dp.layers, workers)
	dp.built = sized(dp.built, len(famPairs))
	clear(dp.built)
	if workers > 1 && cap(dp.done) < len(famPairs) {
		dp.done = make(chan int, len(famPairs))
	}
	dp.build = func(q, w int) { s.familyTable(&dp.tables[q], &dp.layers[w], us, tie, famPairs[q], s.demand[q]) }
	dp.next.Store(0)
	for w := 1; w < workers; w++ {
		dp.running.Add(1)
		go func() {
			defer dp.running.Done()
			for q := int(dp.next.Add(1)) - 1; q < len(dp.built); q = int(dp.next.Add(1)) - 1 {
				dp.build(q, w)
				dp.done <- q
			}
		}()
	}
	return dp.tables
}

// awaitTable returns once table q is built. Meanwhile the caller takes in
// the tables the workers have built and builds unclaimed ones itself.
func (dp *dpScratch) awaitTable(q int) {
	for !dp.built[q] {
		select {
		case c := <-dp.done:
			dp.built[c] = true
		default:
			if c := int(dp.next.Add(1)) - 1; c < len(dp.built) {
				dp.build(c, 0)
				dp.built[c] = true
			} else {
				dp.built[<-dp.done] = true
			}
		}
	}
}

// awaitTables returns once every table is built and every worker stopped.
func (dp *dpScratch) awaitTables() {
	for q := range dp.built {
		dp.awaitTable(q)
	}
	dp.running.Wait()
	dp.entries = 0
	for q := range dp.tables {
		dp.entries += len(dp.tables[q].arena)
	}
}

// exact returns the per-pair device counts of an optimal plan for the
// space's demand under the tie rule, or false when no plan serves it: the
// proof of infeasibility the β back-off waits for. It solves on dp's
// buffers.
func (s *searchSpace) exact(dp *dpScratch) ([]int, bool) {
	us := dp.usage(s.groupSize)
	famPairs := s.familyPairs()
	tie := s.tieRule()
	tables := dp.startTables(s, us, tie, famPairs)
	defer dp.awaitTables()
	dp.cur, dp.nxt = sized(dp.cur, us.n), sized(dp.nxt, us.n)
	cur, nxt := dp.cur, dp.nxt
	fill(cur, none)
	cur[0] = value{}
	dp.choice = sized(dp.choice, len(famPairs))
	choice := dp.choice
	dp.free, dp.digit = sized(dp.free, len(us.size)), sized(dp.digit, len(us.size))
	free, digit := dp.free, dp.digit
	for q := range tables {
		dp.awaitTable(q)
		ft := &tables[q]
		// choice[q] is not cleared: the walk-back reads it only at usage
		// vectors this solve reached, and reaching one writes it.
		choice[q] = sized(choice[q], us.n)
		fill(nxt, none)
		reached := false
		for st := 0; st < us.n; st++ {
			if cur[st] == none {
				continue
			}
			// Every usage vector t ≤ the table's reach with st + t ≤ (|g|):
			// an odometer over the outer groups, and the first group's run
			// t0…t0+free_0, which are consecutive indices, as the inner loop.
			for g := range free {
				free[g], digit[g] = min(us.size[g]-us.of(st, g), ft.reach[g]), 0
			}
			for t0 := 0; ; {
				for t := t0; t <= t0+free[0]; t++ {
					cand := cur[st].plus(ft.val[t])
					if to := st + t; tie.beats(cand, nxt[to]) {
						nxt[to], choice[q][to] = cand, int32(t)
						reached = true
					}
				}
				g := 1
				for ; g < len(digit) && digit[g] == free[g]; g++ {
					t0 -= digit[g] * us.stride[g]
					digit[g] = 0
				}
				if g >= len(digit) {
					break
				}
				digit[g]++
				t0 += us.stride[g]
			}
		}
		if !reached {
			return nil, false
		}
		cur, nxt = nxt, cur
	}
	best := 0
	for st := 1; st < us.n; st++ {
		if tie.beats(cur[st], cur[best]) {
			best = st
		}
	}
	counts := make([]int, len(s.pairs))
	for q := len(tables) - 1; q >= 0; q-- {
		t := int(choice[q][best])
		ft := &tables[q]
		e := ft.best[t]
		for j := len(ft.pairs) - 1; j >= 0; j-- {
			counts[ft.pairs[j]] = int(ft.arena[e].n)
			e = ft.arena[e].parent
		}
		best -= t
	}
	return counts, true
}
