package main

import (
	"fmt"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/numeric"
	"proteus/internal/trace"
)

const (
	allocPeriods      = 8
	allocTraceSeconds = allocPeriods * controlPeriodSeconds
	headroom          = 1.05
	// allocStallNodes is the one MILP option the workload sets besides the
	// time limit. The default (3000) makes a default-cluster solve cost 3–14 s
	// on this class of machine, which leaves no room for eight control
	// periods inside the driver's run budget; 400 keeps the same code path
	// (root relaxation, dives, branch-and-bound on the full 20-device model)
	// at about a tenth of the nodes. Solves still end on the deterministic
	// stall limit or the gap, never on the clock.
	allocStallNodes = 400
	// allocTailPercentile is what latency_slo_frac_tail means here. A run
	// makes about forty solves; p99 of forty is the single slowest one, which
	// is set by whichever trace happens to hold a period whose search
	// improves late. p90 still has four solves beyond it.
	allocTailPercentile = 90
)

var allocReplay = workload{
	name: "alloc_replay",
	run:  runAlloc,
}

func milpOptions(env *runEnv) *allocator.MILPOptions {
	return &allocator.MILPOptions{TimeLimit: 10 * time.Minute, StallNodes: env.scaled(allocStallNodes, 10)}
}

// allocSetup builds the eight control-period inputs: per-family 30 s means
// of the diurnal trace drawn from seed, times the headroom the controller
// applies.
func allocSetup(env *runEnv, seed uint64, parent int) ([]*allocator.Input, *trace.Trace) {
	id := env.spans.start("trace.NewDiurnal", parent)
	tr := env.world.twitterTrace(allocTraceSeconds, subSeed(seed, 0))
	env.spans.end(id)
	periods := env.scaled(allocPeriods, 2)
	inputs := make([]*allocator.Input, periods)
	for p := range inputs {
		inputs[p] = env.world.input(meanDemand(tr, p*controlPeriodSeconds, (p+1)*controlPeriodSeconds, headroom))
	}
	return inputs, tr
}

// solveObs is one Allocate call as the harness saw it.
type solveObs struct {
	wall     time.Duration
	cpu      time.Duration
	bytes    uint64
	mallocs  uint64
	accuracy float64
	stats    allocator.SolverStats
	solveT   time.Duration
	// speed is the machine-speed factor measured around the solve.
	speed float64
}

// runAlloc replays control periods through a fresh MILP allocator per cycle
// (so each cycle starts cold and warm-starts forward, as the controller
// drives it) until the budget is spent. One Allocate is one op. Like the
// simulator's replays (see replaySeed), cycles 0 and 1 solve the same trace
// and must agree exactly; every later cycle solves a fresh one, so a run
// pools some forty distinct solves.
func runAlloc(env *runEnv) (*leg, error) {
	l := newLeg()
	sp := env.spans
	// Input build costs a fraction of a millisecond, so it is repeated many
	// times for a steady median.
	c0 := env.calibrate()
	for i := 0; i < env.scaled(cheapSetupReps, 3); i++ {
		t0 := time.Now()
		sid := sp.start("setup", -1)
		_, _ = allocSetup(env, replaySeed(env.seed, 0), sid)
		_ = allocator.NewMILP(milpOptions(env))
		sp.end(sid)
		l.setupS = append(l.setupS, time.Since(t0).Seconds())
	}
	setupSpeed := speedOf(c0, env.calibrate())
	for i := range l.setupS {
		l.setupS[i] *= setupSpeed
	}

	var cycles [][]solveObs
	var firstPlan *allocator.Allocation
	var firstInputs []*allocator.Input
	var firstTrace *trace.Trace
	deadline := time.Now().Add(env.budget)
	for len(cycles) < 2 || time.Now().Before(deadline) {
		root := sp.start("cycle", -1)
		inputs, tr := allocSetup(env, replaySeed(env.seed, len(cycles)), root)
		if firstInputs == nil {
			firstInputs, firstTrace = inputs, tr
		}
		m := allocator.NewMILP(milpOptions(env))
		cycle := make([]solveObs, 0, len(inputs))
		before := env.calibrate()
		for p, in := range inputs {
			settle()
			u := readUsage()
			id := sp.start("allocator.MILP.Allocate", root)
			plan, err := m.Allocate(in)
			sp.end(id)
			var o solveObs
			o.wall, o.cpu, o.bytes, o.mallocs = u.since()
			after := env.calibrate()
			o.speed = speedOf(before, after)
			before = after
			l.attempted++
			if err != nil {
				l.failed++
				l.problemf("cycle %d period %d: %v", len(cycles), p, err)
				cycle = append(cycle, o)
				continue
			}
			if cerr := plan.Check(in); cerr != nil {
				l.failed++
				l.problemf("cycle %d period %d: plan fails Check: %v", len(cycles), p, cerr)
			}
			if plan.Stats.TimeLimited {
				l.problemf("cycle %d period %d: solve ended on the clock, not on gap or stall", len(cycles), p)
			}
			o.accuracy, o.stats, o.solveT = plan.PredictedAccuracy, plan.Stats, plan.SolveTime
			if len(cycles) == 1 {
				if ref := cycles[0][p]; ref.accuracy != o.accuracy || ref.stats.Nodes != o.stats.Nodes {
					l.problemf("cycle 1 period %d: accuracy %v nodes %d, cycle 0 on the same seed had %v and %d",
						p, o.accuracy, o.stats.Nodes, ref.accuracy, ref.stats.Nodes)
				}
			}
			if o.wall > controlPeriodSeconds*time.Second {
				l.missed++ // the plan was not ready before the next control period
			}
			if firstPlan == nil {
				firstPlan = plan
			}
			cycle = append(cycle, o)
		}
		sp.end(root)
		cycles = append(cycles, cycle)
	}

	// Walls and CPU are in reference seconds (see calib.go). Cycle 1 repeats
	// cycle 0, so accuracy — which does not depend on the machine — pools
	// each trace once; the time metrics use every solve.
	var walls, rawWalls, fracs, cpuUS, acc, speeds []float64
	for c, cyc := range cycles {
		for _, o := range cyc {
			w := o.wall.Seconds() * o.speed
			walls = append(walls, w)
			rawWalls = append(rawWalls, o.wall.Seconds())
			fracs = append(fracs, w/controlPeriodSeconds)
			cpuUS = append(cpuUS, float64(o.cpu.Microseconds())*o.speed)
			speeds = append(speeds, o.speed)
			if c != 1 {
				acc = append(acc, o.accuracy)
			}
		}
	}
	l.e2e[mOps] = 1 / mean(walls)
	l.raw[mOps] = 1 / mean(rawWalls)
	l.speed = median(speeds)
	l.e2e[mCPU] = mean(cpuUS)
	l.e2e[mLatP50] = percentile(fracs, 50)
	l.e2e[mLatTail] = percentile(fracs, allocTailPercentile)
	l.e2e[mSLOOK] = 100 * float64(l.attempted-l.failed-l.missed) / float64(l.attempted)
	l.e2e[mAccuracy] = mean(acc)
	for _, k := range []string{mOps, mCPU, mLatP50, mLatTail, mSLOOK} {
		l.samples[k] = l.attempted
	}
	l.samples[mAccuracy] = len(acc)
	if hp, ok := highestSupportedPercentile(len(fracs)); !ok || hp < allocTailPercentile {
		l.notes = append(l.notes, fmt.Sprintf("latency_slo_frac_tail is p%d of %d solves: only %d lie beyond it", allocTailPercentile, len(fracs), len(fracs)*(100-allocTailPercentile)/100))
	}
	l.feed = &feed{plan: firstPlan, input: firstInputs[0]}

	if env.traced() {
		// The probes want arrivals; the allocator sees none, so they get the
		// arrivals of the trace its demand was averaged from.
		l.feed.arrivals = firstTrace.Arrivals(numeric.NewRNG(subSeed(env.seed, 1)))
		if err := allocLayerMetrics(env, l, cycles, firstInputs); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// allocLayerMetrics derives the allocator rows of a traced leg and runs the
// greedy allocator on the same inputs for the accuracy-per-millisecond
// comparison ROADMAP item 3 asks for.
func allocLayerMetrics(env *runEnv, l *leg, cycles [][]solveObs, inputs []*allocator.Input) error {
	var share, nodes, backoffs, msPerNode, mallocs, mb, cold, milpAcc []float64
	for _, c := range cycles {
		for p, o := range c {
			if o.solveT > 0 {
				share = append(share, float64(o.stats.SolverTime)/float64(o.solveT))
			}
			nodes = append(nodes, float64(o.stats.Nodes))
			backoffs = append(backoffs, float64(o.stats.Backoffs))
			if o.stats.Nodes > 0 {
				msPerNode = append(msPerNode, o.wall.Seconds()*1e3/float64(o.stats.Nodes))
			}
			mallocs = append(mallocs, float64(o.mallocs))
			mb = append(mb, float64(o.bytes)/1e6)
			if p == 0 {
				cold = append(cold, o.wall.Seconds())
			}
		}
	}
	for _, o := range cycles[0] {
		milpAcc = append(milpAcc, o.accuracy)
	}
	l.layer["allocator.solver_share"] = mean(share)
	l.layer["allocator.nodes_per_solve"] = mean(nodes)
	l.layer["allocator.backoffs_per_solve"] = mean(backoffs)
	l.layer["allocator.ms_per_node"] = median(msPerNode)
	l.layer["allocator.mallocs_per_solve"] = mean(mallocs)
	l.layer["allocator.mb_per_solve"] = mean(mb)
	l.layer["allocator.cold_solve_s"] = median(cold)

	greedy := allocator.NewInfaasAccuracy()
	var greedyUS, greedyAcc []float64
	for _, in := range inputs {
		id := env.spans.start("allocator.Infaas.Allocate", -1)
		t := time.Now()
		plan, err := greedy.Allocate(in)
		greedyUS = append(greedyUS, float64(time.Since(t).Nanoseconds())/1e3)
		env.spans.end(id)
		if err != nil {
			return fmt.Errorf("greedy allocator: %w", err)
		}
		if cerr := plan.Check(in); cerr != nil {
			l.problemf("greedy plan fails Check: %v", cerr)
		}
		greedyAcc = append(greedyAcc, plan.PredictedAccuracy)
	}
	l.layer["allocator.greedy_solve_us"] = median(greedyUS)
	l.layer["allocator.greedy_accuracy_gap_pt"] = mean(milpAcc) - mean(greedyAcc)
	return nil
}
