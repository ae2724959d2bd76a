package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/numeric"
	"proteus/internal/overload"
	"proteus/internal/report"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// Full-size trace lengths. The incident trace is shorter than the issue's
// 600 s: the driver's 92-run budget allows about 20 s per run, and a replay
// with every observability layer on simulates only ~18 k queries/s, so 180 s
// (six control periods, six spikes) is what fits enough replays for a median.
const (
	steadyTraceSeconds   = 1800
	incidentTraceSeconds = 180
	controlPeriodSeconds = 30
	// tracerCapacity holds a full incident replay (about 230 k lifecycle
	// events) with room to spare, in the issue's proportion of 2 M for 600 s.
	tracerCapacity = 600_000
)

var simSteady = workload{
	name: "sim_steady",
	run:  func(env *runEnv) (*leg, error) { return runSim(env, false) },
}

var simIncident = workload{
	name: "sim_incident",
	run:  func(env *runEnv) (*leg, error) { return runSim(env, true) },
}

// simState is one replay's prepared inputs.
type simState struct {
	sys      *core.System
	alloc    *checkingAllocator
	arrivals []trace.Arrival
	duration time.Duration
	initial  []float64

	// incident-only observability
	tracer    *telemetry.Tracer
	registry  *telemetry.Registry
	recorder  *tsdb.Recorder
	flight    *flightrec.Recorder
	flightDir string
}

// simSetup builds everything a replay needs before its clock starts: trace
// and arrival synthesis from the replay's seed, the fault schedule and
// observability sinks for the incident workload, and the system itself.
func simSetup(env *runEnv, seed uint64, incident bool, parent int) (*simState, error) {
	w, sp := env.world, env.spans
	st := &simState{}
	var tr *trace.Trace
	if incident {
		secs := env.scaled(incidentTraceSeconds, 2*controlPeriodSeconds)
		id := sp.start("trace.NewAdversarial", parent)
		tr = trace.NewAdversarial(trace.AdversarialConfig{
			Seconds:       secs,
			BaseQPS:       150,
			SpikeQPS:      300,
			SpikeSeconds:  10,
			PeriodSeconds: controlPeriodSeconds,
			ZipfAlpha:     1.001,
			Families:      w.names,
		})
		sp.end(id)
	} else {
		secs := env.scaled(steadyTraceSeconds, 2*controlPeriodSeconds)
		id := sp.start("trace.NewDiurnal", parent)
		tr = w.twitterTrace(secs, subSeed(seed, 0))
		sp.end(id)
	}
	id := sp.start("trace.Arrivals", parent)
	st.arrivals = tr.Arrivals(numeric.NewRNG(subSeed(seed, 1)))
	sp.end(id)
	st.duration = time.Duration(tr.Seconds()) * time.Second
	st.initial = meanDemand(tr, 0, controlPeriodSeconds, 1)

	st.alloc = &checkingAllocator{Allocator: allocator.NewInfaasAccuracy()}
	cfg := core.Config{
		Cluster:       w.cluster,
		Families:      w.families,
		SLOMultiplier: sloMultiplier,
		Allocator:     st.alloc,
		Seed:          subSeed(seed, 2),
	}
	if incident {
		faults, err := cluster.RandomSchedule(w.cluster, cluster.RandomScheduleConfig{
			MTBF:    2400 * time.Second,
			MTTR:    30 * time.Second,
			Horizon: st.duration,
			Seed:    subSeed(seed, 3),
		})
		if err != nil {
			return nil, err
		}
		st.flightDir = filepath.Join(env.tmpDir, "flight")
		if err := os.MkdirAll(st.flightDir, 0o755); err != nil {
			return nil, err
		}
		st.tracer = telemetry.NewTracer(env.scaled(tracerCapacity, 1<<16))
		st.registry = telemetry.NewRegistry()
		st.recorder = tsdb.NewRecorder(tsdb.Config{SLO: tsdb.SLOConfig{
			Target:      0.01,
			BurnRate:    2,
			ShortWindow: 2 * time.Second,
			LongWindow:  8 * time.Second,
		}})
		st.flight = flightrec.New(flightrec.Config{Dir: st.flightDir})
		cfg.Faults = faults
		cfg.Tracer = st.tracer
		cfg.Telemetry = st.registry
		cfg.TSDB = st.recorder
		cfg.Flight = st.flight
		// The overload block of configs/overload_adversarial.json.
		cfg.Overload = &overload.Config{
			Enabled:           true,
			HighWater:         64,
			LowWater:          32,
			RestoreHold:       5 * time.Second,
			EscalateAfter:     10 * time.Second,
			RedegradeCooldown: 10 * time.Second,
		}
	}
	id = sp.start("core.NewSystem", parent)
	sys, err := core.NewSystem(cfg)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	st.sys = sys
	return st, nil
}

// simReplay is what one replay measured.
type simReplay struct {
	summary metrics.Summary
	wall    time.Duration
	cpu     time.Duration
	// speed is the machine-speed factor measured around the timed region.
	speed   float64
	bytes   uint64
	mallocs uint64
	result  *core.Result
	state   *simState
	// incident-only
	events    []telemetry.Event
	htmlBytes int
	bundles   int
	bundleKB  float64
	buildNS   int64
	renderNS  int64
}

// replaySeed is the seed of the i-th replay of a run. Replays 0 and 1 share
// one — they must agree exactly, which is the determinism check — and every
// later replay draws a fresh trace, arrival sequence and fault schedule. A
// run's numbers are therefore medians and pooled counts over a dozen traces,
// not over one: the cost of a query depends on the trace (how many are
// dropped, how often a burst re-plans), by ±7 % between seeds on sim_steady,
// and pooling keeps that out of the run-to-run spread.
func replaySeed(seed uint64, i int) uint64 {
	if i > 0 {
		i--
	}
	return subSeed(seed, 100+uint64(i))
}

// runSim replays the simulator workload until the budget is spent. Each
// replay is a full set-up (one setup_s sample) plus one timed region (one
// sample of the time metrics); service quality is pooled over the distinct
// replays.
func runSim(env *runEnv, incident bool) (*leg, error) {
	l := newLeg()
	sp := env.spans
	var replays []simReplay
	hists := make([]*tsdb.Histogram, len(env.world.families))
	for f := range hists {
		hists[f] = &tsdb.Histogram{}
	}
	var queries, served, completed int
	var accSum float64
	deadline := time.Now().Add(env.budget)
	for len(replays) < 2 || time.Now().Before(deadline) {
		i := len(replays)
		root := sp.start("replay", -1)
		t0 := time.Now()
		sid := sp.start("setup", root)
		st, err := simSetup(env, replaySeed(env.seed, i), incident, sid)
		sp.end(sid)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)

		rep := simReplay{state: st}
		settle()
		c0 := env.calibrate()
		l.setupS = append(l.setupS, setup.Seconds()*speedOf(c0))
		u := readUsage()
		rid := sp.start("core.RunArrivals", root)
		res, err := st.sys.RunArrivals(st.arrivals, st.duration, st.initial)
		sp.end(rid)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", i, err)
		}
		if incident {
			rep.events = st.tracer.Events()
			bid := sp.start("report.Build", root)
			t := time.Now()
			dump := report.Build(report.BuildInput{
				Label:        "sim_incident",
				Seed:         env.seed,
				Collector:    res.Collector,
				Recorder:     st.recorder,
				Plans:        res.Plans,
				Events:       rep.events,
				TraceDropped: st.tracer.Dropped(),
			})
			rep.buildNS = int64(time.Since(t))
			sp.end(bid)
			did := sp.start("report.WriteJSON", root)
			err := dump.WriteJSON(io.Discard)
			sp.end(did)
			if err != nil {
				return nil, err
			}
			hid := sp.start("report.RenderHTML", root)
			t = time.Now()
			sink += len(report.RenderHTML(dump))
			rep.renderNS = int64(time.Since(t))
			sp.end(hid)
		}
		rep.wall, rep.cpu, rep.bytes, rep.mallocs = u.since()
		rep.speed = speedOf(c0, env.calibrate())
		rep.summary, rep.result = res.Summary, res
		if incident {
			if err := rep.collectBundles(st); err != nil {
				return nil, err
			}
			if err := st.flight.WriteError(); err != nil {
				l.problemf("flight recorder write: %v", err)
			}
		}
		sp.end(root)

		// Output checks: conservation, plan validity, determinism.
		s := rep.summary
		if s.Queries != len(st.arrivals) || s.Queries != s.Served+s.Late+s.Dropped {
			l.problemf("replay %d: %d arrivals, summary has %d = %d served + %d late + %d dropped",
				i, len(st.arrivals), s.Queries, s.Served, s.Late, s.Dropped)
			l.failed += abs(len(st.arrivals) - (s.Served + s.Late + s.Dropped))
		}
		l.problems = append(l.problems, st.alloc.failures...)
		if i == 1 && s != replays[0].summary {
			l.problemf("replay 1 differs from replay 0 on the same seed:\n  %v\n  %v", s, replays[0].summary)
		}
		l.attempted += s.Queries
		l.missed += s.Late + s.Dropped
		if i != 1 { // replay 1 repeats replay 0; pool each trace once
			queries += s.Queries
			served += s.Served
			completed += s.Served + s.Late
			accSum += s.EffectiveAccuracy * float64(s.Served)
			for f := range hists {
				hists[f].Merge(res.Collector.LatencyHistogram(f))
			}
		}
		if i > 0 {
			// Only the first replay's state feeds the probes; holding every
			// replay's arrivals, collector and trace ring would grow the heap
			// the later replays are measured on.
			rep.state, rep.result, rep.events = nil, nil, nil
		}
		replays = append(replays, rep)
	}

	// The replays differ in trace, so their per-query costs are samples of a
	// mixture, not repeats of one value, and the host adds the odd slow
	// replay on top: the run's figure is the midmean of the per-replay
	// values, which averages the mixture but ignores the tails.
	var qps, rawQPS, cpuUS, speeds []float64
	for _, r := range replays {
		q := float64(r.summary.Queries)
		rawQPS = append(rawQPS, q/r.wall.Seconds())
		qps = append(qps, q/(r.wall.Seconds()*r.speed))
		cpuUS = append(cpuUS, float64(r.cpu.Microseconds())*r.speed/q)
		speeds = append(speeds, r.speed)
	}
	l.raw[mOps] = midmean(rawQPS)
	l.speed = median(speeds)
	fracs := sloFractions(hists, env.world.slosNS)
	l.e2e[mOps] = midmean(qps)
	l.e2e[mCPU] = midmean(cpuUS)
	l.e2e[mLatP50] = weightedPercentile(fracs, 50)
	l.e2e[mLatTail] = weightedPercentile(fracs, 99)
	l.e2e[mSLOOK] = 100 * float64(served) / float64(queries)
	l.e2e[mAccuracy] = accSum / float64(served)
	l.samples[mOps] = len(replays)
	l.samples[mCPU] = len(replays)
	l.samples[mLatP50] = completed
	l.samples[mLatTail] = completed
	l.samples[mSLOOK] = queries
	l.samples[mAccuracy] = served
	first := replays[0]
	l.feed = &feed{arrivals: first.state.arrivals, plan: first.state.alloc.first, input: first.state.alloc.firstIn,
		events: first.events, plans: first.result.Plans}

	if env.traced() {
		simLayerMetrics(l, replays, incident)
	}
	return l, nil
}

// collectBundles counts and sizes the incident bundles the flight recorder
// wrote during the replay, then empties its directory for the next one.
func (rep *simReplay) collectBundles(st *simState) error {
	files, err := os.ReadDir(st.flightDir)
	if err != nil {
		return err
	}
	total := int64(0)
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			return err
		}
		total += info.Size()
	}
	rep.bundles = len(files)
	if len(files) > 0 {
		rep.bundleKB = float64(total) / 1024 / float64(len(files))
	}
	return os.RemoveAll(st.flightDir)
}

// simLayerMetrics derives the per-layer observations a traced sim leg owns.
func simLayerMetrics(l *leg, replays []simReplay, incident bool) {
	var runNS, mallocs, bytes []float64
	for _, r := range replays {
		q := float64(r.summary.Queries)
		runNS = append(runNS, float64(r.wall.Nanoseconds())/q)
		mallocs = append(mallocs, float64(r.mallocs)/q)
		bytes = append(bytes, float64(r.bytes)/q)
	}
	if !incident {
		l.layer["core.run_ns_per_query"] = median(runNS)
		l.layer["core.mallocs_per_query"] = median(mallocs)
		l.layer["core.bytes_per_query"] = median(bytes)
		return
	}
	l.layer["core.incident_bytes_per_query"] = median(bytes)
	r := replays[0]
	st := r.state
	q := float64(r.summary.Queries)
	l.layer["controlplane.plans"] = float64(len(r.result.Plans))
	l.layer["telemetry.events_per_query"] = float64(uint64(st.tracer.Len())+st.tracer.Dropped()) / q
	l.layer["telemetry.dropped_events"] = float64(st.tracer.Dropped())
	rejected := st.registry.Counter("overload_rejected_total").Value()
	l.layer["overload.shed_ratio"] = float64(rejected) / q
	l.layer["flightrec.bundles"] = float64(r.bundles)
	l.layer["flightrec.bundle_kb"] = r.bundleKB
	var build, render []float64
	for _, r := range replays {
		build = append(build, float64(r.buildNS)/1e6)
		render = append(render, float64(r.renderNS)/1e6)
	}
	l.layer["report.build_ms"] = median(build)
	l.layer["report.render_ms"] = median(render)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
