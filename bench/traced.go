package main

import (
	"fmt"
	"time"
)

// companion sizes: in a traced run every workload runs at least a small
// traced leg, because each owns some per-layer rows; only the workload under
// trace runs at full size.
const (
	companionSimScale   = 1.0 / 6 // 300 s of the diurnal trace, 60 s of the incident trace
	companionLiveWindow = 3 * time.Second
)

// headline is the metric a workload's trace overhead is quoted on: CPU per
// query for the live path (its throughput is set by the generator), work per
// second elsewhere.
func headline(name string) string {
	if name == liveSteady.name {
		return mCPU
	}
	return mOps
}

// tracedRun runs the workload once untraced and once traced (a quarter of
// the run's seconds each), small traced legs of the other workloads, and the
// layer probes fed with the workload's own arrivals and plan. It reports
// every per-layer metric and no end-to-end one.
func (h *harness) tracedRun(w workload) (resultLine, []span, error) {
	spans := newSpanRecorder()
	full := time.Duration(h.opts.seconds) * time.Second / 4
	layer := map[string]float64{}
	var problems []string
	var main *leg
	in := probeInputs{}

	for _, x := range workloads {
		budget, scale := time.Duration(0), 1.0
		switch {
		case x.name == w.name:
			budget = full
		case x.name == liveSteady.name:
			budget = companionLiveWindow
		case x.name == allocReplay.name:
			// One full-size cycle: shrinking it would change the node budget
			// and with it what nodes_per_solve means.
		default:
			scale = companionSimScale
		}
		// The untraced twin is needed where a traced/untraced ratio is
		// reported: the workload under trace, and the live path's
		// observability tax.
		var plain *leg
		if x.name == w.name || x.name == liveSteady.name {
			var err error
			if plain, err = x.run(h.env(budget, scale, nil)); err != nil {
				return resultLine{}, nil, fmt.Errorf("%s untraced leg: %w", x.name, err)
			}
			problems = append(problems, plain.problems...)
		}
		spans.setWorkload(x.name)
		traced, err := x.run(h.env(budget, scale, spans))
		if err != nil {
			return resultLine{}, nil, fmt.Errorf("%s traced leg: %w", x.name, err)
		}
		problems = append(problems, traced.problems...)
		for k, v := range traced.layer {
			layer[k] = v
		}
		if x.name == liveSteady.name {
			layer["serving.obs_tax_cpu_pct"] = 100 * (traced.e2e[mCPU] - plain.e2e[mCPU]) / plain.e2e[mCPU]
		}
		if x.name == simIncident.name {
			in.incident = traced.feed
		}
		if x.name == w.name {
			main = traced
			in.feed = traced.feed
			k := headline(x.name)
			over := 100 * (plain.e2e[k] - traced.e2e[k]) / plain.e2e[k]
			if k == mCPU {
				over = -over // a cost, not a rate: more is worse
			}
			layer["bench.trace_overhead_pct"] = over
		}
	}

	// Per-layer times are raw, not in reference seconds: the probes are too
	// short to bracket one by one. The machine speed around them is reported
	// instead, so two traced runs can be put on one scale.
	spans.setWorkload(w.name)
	penv := h.env(0, 1, spans)
	before := calibrate()
	if err := runProbes(penv, in, layer); err != nil {
		return resultLine{}, nil, err
	}
	layer["bench.machine_speed"] = speedOf(before, calibrate())
	id := spans.start("probe.serving", -1)
	single, parallel, err := dropPath(penv)
	spans.end(id)
	if err != nil {
		return resultLine{}, nil, err
	}
	layer["serving.drop_path_ns"] = single
	layer["serving.drop_path_ns_par"] = parallel
	// What core itself costs per query once one call of each probe below it
	// is taken out: a route, an arrival+served record, a batching decision
	// and the arrival and completion events.
	layer["core.self_ns_per_query"] = layer["core.run_ns_per_query"] - layer["router.pick_ns"] -
		layer["metrics.record_ns"] - layer["batching.decide_ns_q1"] - 2*layer["simulation.ns_per_event"]

	line := resultLine{
		Correct:   len(problems) == 0,
		Attempted: main.attempted,
		Failed:    main.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("\n== %s traced: attempted %d, failed %d, %d spans\n", w.name, main.attempted, main.failed, len(spans.snapshot()))
	for _, m := range h.spec.PerLayer {
		v, ok := layer[m.Name]
		if !ok {
			return resultLine{}, nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		delete(layer, m.Name)
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if len(layer) > 0 {
		return resultLine{}, nil, fmt.Errorf("per-layer metrics measured but missing from BENCHMARK.json: %v", sortedKeys(layer))
	}
	for _, p := range problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	return line, spans.snapshot(), nil
}
