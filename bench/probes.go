package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/attrib"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/flightrec"
	"proteus/internal/lp"
	"proteus/internal/metrics"
	"proteus/internal/milp"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/router"
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeRounds is how many times each probe loop is repeated; the median
// round is reported.
const probeRounds = 5

// probeNS times fn(i) for i in [0, iters), probeRounds times, and returns the
// median round's nanoseconds per call.
func probeNS(iters int, fn func(i int)) float64 {
	rounds := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		t := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(iters))
	}
	return median(rounds)
}

// probeAllocs returns bytes and mallocs per call of fn over iters calls.
func probeAllocs(iters int, fn func(i int)) (bytes, mallocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < iters; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(iters), float64(b.Mallocs-a.Mallocs) / float64(iters)
}

// fixedAllocator returns one prebuilt plan at no cost, so a Reallocate
// through it measures the controller's own overhead.
type fixedAllocator struct{ plan *allocator.Allocation }

func (f fixedAllocator) Name() string                 { return "fixed" }
func (f fixedAllocator) Dynamic() bool                { return true }
func (f fixedAllocator) Features() allocator.Features { return allocator.Features{Method: "Static"} }
func (f fixedAllocator) Allocate(*allocator.Input) (*allocator.Allocation, error) {
	return f.plan, nil
}

// probeInputs is what the layer probes are fed with: the traced workload's
// own arrivals and first plan, and the incident leg's lifecycle trace.
type probeInputs struct {
	feed     *feed
	incident *feed
}

// runProbes measures each layer's public calls in isolation. Every probe is
// a span, so the span file shows where a traced run's time went.
func runProbes(env *runEnv, in probeInputs, out map[string]float64) error {
	w, sp := env.world, env.spans
	arrivals, plan := in.feed.arrivals, in.feed.plan
	if len(arrivals) == 0 || plan == nil {
		return fmt.Errorf("probes need arrivals and a plan")
	}
	const maxFeed = 200_000
	if len(arrivals) > maxFeed {
		arrivals = arrivals[:maxFeed]
	}
	n := len(arrivals)
	nFam, nDev := len(w.families), w.cluster.Size()
	var probeErr error
	probe := func(name string, fn func()) {
		id := sp.start("probe."+name, -1)
		fn()
		sp.end(id)
	}

	probe("trace", func() {
		const secs = 300
		t := time.Now()
		tr := w.twitterTrace(secs, subSeed(env.seed, 0))
		arr := tr.Arrivals(numeric.NewRNG(subSeed(env.seed, 1)))
		out["trace.gen_ns_per_arrival"] = float64(time.Since(t).Nanoseconds()) / float64(len(arr))
	})

	probe("simulation", func() {
		noop := func() {}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t := time.Now()
		eng := simulation.NewEngine()
		for _, arr := range arrivals {
			eng.Schedule(arr.Time, noop)
		}
		eng.Run()
		el := time.Since(t)
		runtime.ReadMemStats(&b)
		out["simulation.ns_per_event"] = float64(el.Nanoseconds()) / float64(n)
		out["simulation.allocs_per_event"] = float64(b.Mallocs-a.Mallocs) / float64(n)
		sink += int(eng.Fired())
	})

	probe("router", func() {
		table := router.BuildTable(plan, nFam)
		rng := numeric.NewRNG(subSeed(env.seed, 4))
		out["router.pick_ns"] = probeNS(n, func(i int) { sink += table.Pick(arrivals[i].Family, rng) })
		banned := func(dev int) bool { return dev%7 == 0 }
		out["router.pick_excluding_ns"] = probeNS(n, func(i int) { sink += table.PickExcluding(arrivals[i].Family, rng, banned) })
		out["router.build_table_us"] = probeNS(2000, func(int) { sink += router.BuildTable(plan, nFam).Entries() }) / 1e3
	})

	// The first hosted device of the plan supplies a real (variant, device
	// type, SLO) triple for the batching and profile probes.
	var hosted *allocator.VariantRef
	var spec cluster.TypeSpec
	for d, h := range plan.Hosted {
		if h != nil {
			hosted, spec = h, w.cluster.Device(d).Spec
			break
		}
	}
	if hosted == nil {
		return fmt.Errorf("probes: plan hosts nothing")
	}
	slo := w.slos[hosted.Family]
	store := profiles.NewStore()
	store.ProfileAll(models.MustRegistry(w.families), []cluster.DeviceType{cluster.CPU, cluster.GTX1080Ti, cluster.V100}, 64)
	variantID := hosted.Variant.ID()

	probe("batching", func() {
		policy := batching.NewAccScale()
		maxBatch := profiles.MaxBatch(spec, hosted.Variant, slo)
		memBatch := profiles.MaxMemoryBatch(spec, hosted.Variant)
		procTime := func(b int) time.Duration {
			d, _ := store.Get(variantID, spec.Type, b)
			return d
		}
		for _, depth := range []int{1, 8, 32} {
			queue := make([]batching.Query, depth)
			for i := range queue {
				at := time.Duration(i) * time.Millisecond
				queue[i] = batching.Query{ID: uint64(i), Arrival: at, Deadline: at + slo}
			}
			ctx := &batching.Context{
				Now:         time.Duration(depth) * time.Millisecond,
				Queue:       queue,
				MaxBatch:    maxBatch,
				MemBatch:    memBatch,
				ProcTime:    procTime,
				ArrivalRate: liveQPS / float64(nDev),
			}
			decide := func(int) { sink += policy.Decide(ctx).BatchSize }
			out[fmt.Sprintf("batching.decide_ns_q%d", depth)] = probeNS(20_000, decide)
			if depth == 32 {
				out["batching.decide_bytes_q32"], _ = probeAllocs(20_000, decide)
			}
		}
	})

	probe("profiles", func() {
		out["profiles.latency_ns"] = probeNS(200_000, func(i int) { sink += int(profiles.Latency(spec, hosted.Variant, 1+i%8)) })
		out["profiles.store_get_ns"] = probeNS(200_000, func(i int) {
			d, _ := store.Get(variantID, spec.Type, 1+i%8)
			sink += int(d)
		})
		out["profiles.max_batch_ns"] = probeNS(20_000, func(int) { sink += profiles.MaxBatch(spec, hosted.Variant, slo) })
	})

	probe("metrics", func() {
		var col *metrics.Collector
		rounds := make([]float64, 0, probeRounds)
		for r := 0; r < probeRounds; r++ {
			col = metrics.NewCollector(10*time.Second, w.names)
			t := time.Now()
			for _, a := range arrivals {
				col.Arrival(a.Time, a.Family)
				col.Served(a.Time+20*time.Millisecond, a.Family, 90, 20*time.Millisecond)
			}
			rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(n))
		}
		out["metrics.record_ns"] = median(rounds)
		out["metrics.summarize_us"] = probeNS(200, func(int) { sink += col.Summarize(-1).Served }) / 1e3
	})

	probe("controlplane", func() {
		stats := controlplane.NewStats(nFam, controlPeriodSeconds, 1.5)
		out["controlplane.observe_ns"] = probeNS(n, func(i int) { stats.Observe(arrivals[i].Time, arrivals[i].Family) })
		last := arrivals[n-1].Time
		out["controlplane.estimates_ns"] = probeNS(20_000, func(int) { sink += len(stats.Estimates(last)) })
		ctl := controlplane.NewController(fixedAllocator{plan}, w.cluster, w.families, w.slos,
			controlPeriodSeconds*time.Second, 10*time.Second)
		demand := in.feed.input.Demand
		out["controlplane.reallocate_overhead_us"] = probeNS(2000, func(i int) {
			if _, err := ctl.Reallocate(time.Duration(i)*time.Second, demand, "periodic"); err != nil {
				sink++
			}
		}) / 1e3
	})

	probe("overload", func() {
		guard := overload.New(overload.Config{Enabled: true}, nFam, nDev)
		profs := make([]overload.DeviceProfile, nDev)
		for d := range profs {
			profs[d] = overload.DeviceProfile{Family: -1}
			h := plan.Hosted[d]
			if h == nil {
				continue
			}
			dspec := w.cluster.Device(d).Spec
			mb := profiles.MaxBatch(dspec, h.Variant, w.slos[h.Family])
			if mb < 1 {
				continue
			}
			profs[d] = overload.DeviceProfile{
				Family:   h.Family,
				Accuracy: h.Variant.Accuracy,
				MaxBatch: mb,
				Lat1:     profiles.Latency(dspec, h.Variant, 1),
				LatMax:   profiles.Latency(dspec, h.Variant, mb),
				SLO:      w.slos[h.Family],
			}
		}
		guard.SetPlan(0, profs)
		out["overload.note_depth_ns"] = probeNS(n, func(i int) { guard.NoteDepth(i%nDev, i%48) })
		out["overload.admit_ns"] = probeNS(n, func(i int) {
			a := arrivals[i]
			if guard.Admit(a.Time, i%nDev, a.Time+w.slos[a.Family]) {
				sink++
			}
		})
		out["overload.banned_ns"] = probeNS(n, func(i int) {
			if guard.Banned(arrivals[i].Family, i%nDev) {
				sink++
			}
		})
		out["overload.tick_us"] = probeNS(20_000, func(i int) { sink += len(guard.Tick(time.Duration(i) * time.Second)) }) / 1e3
	})

	probe("telemetry", func() {
		tracer := telemetry.NewTracer(1 << 16)
		ctx := telemetry.Ctx{Plan: 3, Episode: 1}
		out["telemetry.record_ns"] = probeNS(n, func(i int) {
			a := arrivals[i]
			tracer.RecordCtx(a.Time, telemetry.EvDone, uint64(i), a.Family, i%nDev, i, ctx)
		})
		counter := telemetry.NewRegistry().Counter("probe_total")
		out["telemetry.counter_inc_ns"] = probeNS(1_000_000, func(int) { counter.Inc() })
		sink += int(counter.Value())
	})

	states := make([]tsdb.DeviceState, nDev)
	for d := range states {
		states[d] = tsdb.DeviceState{Up: true, QueueDepth: d % 5, LastBatch: 4, Variant: plan.HostedID(d)}
	}
	probe("tsdb", func() {
		rec := tsdb.NewRecorder(tsdb.Config{})
		rec.Init(nFam, nil)
		out["tsdb.arrival_ns"] = probeNS(n, func(i int) { rec.Arrival(arrivals[i].Time, arrivals[i].Family) })
		pd := tsdb.PhaseDurations{Admission: 3 * time.Microsecond, Queue: 4 * time.Millisecond, Exec: 12 * time.Millisecond}
		out["tsdb.record_phases_ns"] = probeNS(n, func(i int) { rec.RecordPhases(arrivals[i].Family, i%nDev, pd) })
		out["tsdb.sample_us"] = probeNS(2000, func(i int) {
			for d := range states {
				states[d].BusyTime += 300 * time.Millisecond
			}
			rec.Sample(time.Duration(i)*time.Second, states)
		}) / 1e3
	})

	probe("flightrec", func() {
		tracer := telemetry.NewTracer(1 << 16)
		for i, a := range arrivals[:min(n, 1<<15)] {
			tracer.Record(a.Time, telemetry.EvArrival, uint64(i), a.Family, -1, -1)
		}
		registry := telemetry.NewRegistry()
		telemetry.NewSystemCounters(registry).Arrivals.Add(int64(n))
		rec := tsdb.NewRecorder(tsdb.Config{})
		rec.Init(nFam, nil)
		for s := 1; s <= 60; s++ {
			rec.Sample(time.Duration(s)*time.Second, states)
		}
		fr := flightrec.New(flightrec.Config{Dir: filepath.Join(env.tmpDir, "probe-flight")})
		fr.Init(flightrec.Sources{Tracer: tracer, Registry: registry, TSDB: rec, Plans: func() []controlplane.PlanRecord { return in.incident.plans }})
		out["flightrec.tick_us"] = probeNS(200, func(i int) { fr.Tick(time.Duration(61+i) * time.Second) }) / 1e3
		out["flightrec.trigger_ms"] = probeNS(10, func(i int) {
			sink += len(fr.Trigger(time.Duration(300+i)*time.Second, "manual", "probe", -1, -1).ID)
		}) / 1e6
	})

	probe("attrib", func() {
		events := in.incident.events
		t := time.Now()
		rep := attrib.Analyze(attrib.Input{Events: events, Plans: in.incident.plans, FamilyNames: w.names})
		out["attrib.analyze_ns_per_event"] = float64(time.Since(t).Nanoseconds()) / float64(max(len(events), 1))
		sink += len(rep.Queries)
	})

	probe("milp", func() {
		// A fixed instance (the seed of internal/milp's own d4q14 benchmark):
		// node counts of a random 4×14 instance range from 1 to dozens.
		mp, lpp := allocShapedInstance(42, 4, 14)
		solve := func(par int) (float64, milp.Solution) {
			var sol milp.Solution
			ns := probeNS(3, func(int) { sol = milp.Solve(mp, &milp.Options{Parallelism: par}) })
			return ns / 1e6, sol
		}
		ms1, sol := solve(1)
		msN, _ := solve(runtime.GOMAXPROCS(0))
		out["milp.solve_ms_par1"] = ms1
		out["milp.solve_ms_parN"] = msN
		out["milp.nodes"] = float64(sol.Nodes)
		bytes, _ := probeAllocs(3, func(int) { sink += milp.Solve(mp, &milp.Options{Parallelism: 1}).Nodes })
		out["milp.bytes_per_node"] = bytes / float64(max(sol.Nodes, 1))

		var cold lp.Solution
		var lpErr error
		solveLP := func(opts *lp.Options) int {
			s, err := lp.Solve(lpp, opts)
			if err != nil {
				lpErr = err
			}
			cold = s
			return s.Iters
		}
		out["lp.solve_us"] = probeNS(20, func(int) { sink += solveLP(nil) }) / 1e3
		warm := &lp.Options{WarmBasis: cold.Basis}
		out["lp.warm_solve_us"] = probeNS(20, func(int) { sink += solveLP(warm) }) / 1e3
		out["lp.bytes_per_solve"], _ = probeAllocs(20, func(int) { sink += solveLP(nil) })
		if lpErr != nil {
			probeErr = fmt.Errorf("lp probe: %w", lpErr)
		}
	})
	return probeErr
}

// allocShapedInstance builds a small allocation-shaped MILP (integer device
// counts n, served rates w ≤ rate·n, per-device count caps, per-variant
// demand caps) and its LP relaxation — the shape of internal/milp's own
// d4q14 benchmark instance.
func allocShapedInstance(seed uint64, devices, variants int) (*milp.Problem, *lp.Problem) {
	rng := numeric.NewRNG(seed)
	mp, lpp := milp.NewProblem(), lp.NewProblem()
	addVar := func(integer bool, lo, hi, obj float64) int {
		v := lpp.AddVariable("x", lo, hi)
		lpp.SetObjective(v, obj)
		var mv int
		if integer {
			mv = mp.AddInteger("x", lo, hi)
		} else {
			mv = mp.AddVariable("x", lo, hi)
		}
		mp.SetObjective(mv, obj)
		return v
	}
	addRow := func(terms []lp.Term, rhs float64) {
		mp.AddConstraint(terms, lp.LE, rhs)
		lpp.AddConstraint(terms, lp.LE, rhs)
	}
	caps := make([]float64, devices)
	for d := range caps {
		caps[d] = float64(3 + rng.Intn(6))
	}
	type pair struct{ n, w int }
	pairs := make([]pair, 0, devices*variants)
	for d := 0; d < devices; d++ {
		for v := 0; v < variants; v++ {
			n := addVar(true, 0, caps[d], 0)
			wv := addVar(false, 0, 200, float64(40+rng.Intn(60)))
			rate := float64(8 + rng.Intn(12))
			addRow([]lp.Term{{Var: wv, Coef: 1}, {Var: n, Coef: -rate}}, 0)
			pairs = append(pairs, pair{n, wv})
		}
	}
	for d := 0; d < devices; d++ {
		terms := make([]lp.Term, 0, variants)
		for v := 0; v < variants; v++ {
			terms = append(terms, lp.Term{Var: pairs[d*variants+v].n, Coef: 1})
		}
		addRow(terms, caps[d])
	}
	for v := 0; v < variants; v += 2 {
		terms := make([]lp.Term, 0, devices)
		for d := 0; d < devices; d++ {
			terms = append(terms, lp.Term{Var: pairs[d*variants+v].w, Coef: 1})
		}
		addRow(terms, float64(10+rng.Intn(25)))
	}
	return mp, lpp
}
