// Command proteus-sim runs one inference-serving simulation from a JSON
// configuration file, mirroring the paper artifact's config-driven workflow
// (model_allocation and batching take the artifact's values: ilp,
// infaas_v2, sommelier, clipper-ht/-ha; accscale, aimd, nexus, static-N).
//
// Example config:
//
//	{
//	  "model_allocation": "ilp",
//	  "batching": "accscale",
//	  "cluster_size": 20,
//	  "slo_multiplier": 2,
//	  "seed": 1,
//	  "trace": {"kind": "twitter", "seconds": 300, "base_qps": 180, "peak_qps": 560}
//	}
//
// A trace may also come from a CSV file written by proteus-traces:
//
//	"trace": {"kind": "csv", "path": "trace.csv"}
//
// Observability flags: -timeseries out.csv dumps the per-bin metric series,
// -trace out.json (or .jsonl) dumps the per-query lifecycle trace — byte
// identical across runs with the same config and seed — and -metrics out.txt
// dumps the final counter snapshot. -tsdb run.json writes the full run dump
// (windowed percentiles, device utilization time-series, SLO burn log,
// decision audit) and -report out.html renders it as a self-contained HTML
// page (proteus-report renders the same from a saved dump); both are byte
// identical across same-seed runs. -incidents DIR enables the black-box
// flight recorder: every SLO burn start, overload degradation, allocator
// fallback, and device failure snapshots the recent trace / counter /
// time-series / plan state as an incident bundle into the incident log
// DIR/incidents.log, also byte identical across same-seed runs;
// proteus-report -incident DIR lists its bundles and renders one. The optional "slo" config block tunes
// the burn monitor, e.g.
//
//	"slo": {"target": 0.01, "burn_rate": 2, "short_window_s": 5,
//	        "long_window_s": 60, "sample_interval_s": 1}
//
// The optional "overload" block enables the fast-path overload guard
// (deadline admission control, mailbox backpressure, burn-triggered
// emergency accuracy degradation between control periods):
//
//	"overload": {"enabled": true, "high_water": 64, "low_water": 32,
//	             "restore_hold_s": 5, "escalate_after_s": 10,
//	             "redegrade_cooldown_s": 10}
//
// and "max_retries" sets the per-query re-route budget after a device
// failure (default 1; an explicit 0 drops stranded queries immediately).
// Unknown keys are rejected.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/flightrec"
	"proteus/internal/metrics"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/report"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

type config struct {
	ModelAllocation string      `json:"model_allocation"`
	Batching        string      `json:"batching"`
	ClusterSize     int         `json:"cluster_size"`
	SLOMultiplier   float64     `json:"slo_multiplier"`
	Seed            uint64      `json:"seed"`
	Trace           traceConfig `json:"trace"`
	// Devices overrides cluster_size with an explicit fleet, e.g.
	// [{"type": "cpu", "count": 4}, {"type": "v100", "count": 2}].
	// Unknown device types are a config error, not a crash.
	Devices []deviceConfig `json:"devices"`
	// Faults optionally injects device failures during the run.
	Faults *faultConfig `json:"faults"`
	// SLO tunes the burn-rate monitor backing -tsdb/-report; zero fields
	// take the recorder's defaults (1% budget, 2x burn over 5s/60s windows,
	// 1s sampling).
	SLO *sloConfig `json:"slo"`
	// Overload enables the fast-path overload guard. The degradation path
	// needs the burn monitor, so pair it with -tsdb/-report or an "slo"
	// block when degradation matters.
	Overload *overloadConfig `json:"overload"`
	// MaxRetries is the per-query re-route budget after a device failure.
	// Absent means the default (1); an explicit 0 drops stranded queries
	// immediately.
	MaxRetries *int `json:"max_retries"`
}

type overloadConfig struct {
	Enabled             bool    `json:"enabled"`
	DisableAdmission    bool    `json:"disable_admission"`
	DisableBackpressure bool    `json:"disable_backpressure"`
	DisableDegradation  bool    `json:"disable_degradation"`
	HighWater           int     `json:"high_water"`
	LowWater            int     `json:"low_water"`
	RestoreHoldS        float64 `json:"restore_hold_s"`
	EscalateAfterS      float64 `json:"escalate_after_s"`
	RedegradeCooldownS  float64 `json:"redegrade_cooldown_s"`
}

// buildOverload maps the JSON block onto the guard configuration.
func buildOverload(oc *overloadConfig) *overload.Config {
	if oc == nil {
		return nil
	}
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	return &overload.Config{
		Enabled:             oc.Enabled,
		DisableAdmission:    oc.DisableAdmission,
		DisableBackpressure: oc.DisableBackpressure,
		DisableDegradation:  oc.DisableDegradation,
		HighWater:           oc.HighWater,
		LowWater:            oc.LowWater,
		RestoreHold:         sec(oc.RestoreHoldS),
		EscalateAfter:       sec(oc.EscalateAfterS),
		RedegradeCooldown:   sec(oc.RedegradeCooldownS),
	}
}

type sloConfig struct {
	Target          float64 `json:"target"`
	BurnRate        float64 `json:"burn_rate"`
	ShortWindowS    float64 `json:"short_window_s"`
	LongWindowS     float64 `json:"long_window_s"`
	SampleIntervalS float64 `json:"sample_interval_s"`
}

type deviceConfig struct {
	Type  string `json:"type"`
	Count int    `json:"count"`
}

// faultConfig selects one of three fault-injection modes: a fractional kill
// (kill_fraction + fail_at_seconds [+ recover_at_seconds]), explicit events,
// or seeded random MTBF/MTTR injection.
type faultConfig struct {
	KillFraction     float64            `json:"kill_fraction"`
	FailAtSeconds    float64            `json:"fail_at_seconds"`
	RecoverAtSeconds float64            `json:"recover_at_seconds"`
	Events           []faultEventConfig `json:"events"`
	MTBFSeconds      float64            `json:"mtbf_seconds"`
	MTTRSeconds      float64            `json:"mttr_seconds"`
	Seed             uint64             `json:"seed"`
}

type faultEventConfig struct {
	Device           int     `json:"device"`
	FailAtSeconds    float64 `json:"fail_at_seconds"`
	RecoverAtSeconds float64 `json:"recover_at_seconds"`
}

type traceConfig struct {
	Kind    string  `json:"kind"` // twitter, bursty, adversarial, csv
	Seconds int     `json:"seconds"`
	BaseQPS float64 `json:"base_qps"`
	PeakQPS float64 `json:"peak_qps"`
	Path    string  `json:"path"`
	Seed    uint64  `json:"seed"`
	// Adversarial-kind knobs: spike height (peak_qps is the fallback),
	// spike length and spacing in seconds.
	SpikeSeconds  int `json:"spike_seconds"`
	PeriodSeconds int `json:"period_seconds"`
}

// buildCluster resolves the fleet: an explicit device list (validated) when
// given, the 2:1:1 scaled testbed otherwise.
func buildCluster(cfg *config) (*cluster.Cluster, error) {
	if len(cfg.Devices) == 0 {
		return cluster.ScaledTestbed(cfg.ClusterSize), nil
	}
	var counts []cluster.TypeCount
	for _, d := range cfg.Devices {
		counts = append(counts, cluster.TypeCount{Type: cluster.DeviceType(d.Type), Count: d.Count})
	}
	return cluster.NewFromSpec(counts)
}

// buildFaults turns the fault config into a schedule for the cluster.
func buildFaults(fc *faultConfig, cl *cluster.Cluster, traceSeconds int) (*cluster.FailureSchedule, error) {
	if fc == nil {
		return nil, nil
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	switch {
	case len(fc.Events) > 0:
		s := &cluster.FailureSchedule{}
		for _, ev := range fc.Events {
			s.Events = append(s.Events, cluster.FailureEvent{
				Device:    ev.Device,
				FailAt:    sec(ev.FailAtSeconds),
				RecoverAt: sec(ev.RecoverAtSeconds),
			})
		}
		return s, nil
	case fc.KillFraction > 0:
		return cluster.KillFraction(cl, fc.KillFraction, sec(fc.FailAtSeconds), sec(fc.RecoverAtSeconds)), nil
	case fc.MTBFSeconds > 0 || fc.MTTRSeconds > 0:
		return cluster.RandomSchedule(cl, cluster.RandomScheduleConfig{
			MTBF:    sec(fc.MTBFSeconds),
			MTTR:    sec(fc.MTTRSeconds),
			Horizon: time.Duration(traceSeconds) * time.Second,
			Seed:    fc.Seed,
		})
	}
	return nil, fmt.Errorf("faults config needs events, kill_fraction, or mtbf/mttr_seconds")
}

// errUsage is run's answer to bad arguments; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stdout, func(path string) (io.WriteCloser, error) { return os.Create(path) })
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// run is the whole command on its arguments. The report goes to stdout and
// the "simulated in … (wall)" line, the only one that differs between
// same-seed runs, to wall (nil leaves it out). Every output file a flag
// names is opened through create, except the incident log, which the flight
// recorder writes into its directory itself. Bad arguments return errUsage
// after the usage text went to stderr.
func run(args []string, stdout, wall io.Writer, create func(path string) (io.WriteCloser, error)) error {
	fs := flag.NewFlagSet("proteus-sim", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON experiment config (required)")
		tsOut      = fs.String("timeseries", "", "optional CSV path for the run's per-bin time series")
		traceOut   = fs.String("trace", "", "optional path for the telemetry trace (.jsonl = JSON lines, anything else = Chrome trace_event JSON)")
		metricsOut = fs.String("metrics", "", "optional path for the final counter snapshot (text key-value)")
		tsdbOut    = fs.String("tsdb", "", "optional path for the run dump JSON (windowed metrics, device time-series, SLO burn log, decision audit)")
		reportOut  = fs.String("report", "", "optional path for the self-contained HTML run report")
		incDir     = fs.String("incidents", "", "optional directory for the flight recorder's incident log, DIR/incidents.log (enables the flight recorder)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *configPath == "" {
		fmt.Fprintln(fs.Output(), "proteus-sim: -config is required")
		fs.Usage()
		return errUsage
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	cfg, err := loadConfig(raw)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *configPath, err)
	}

	tr, err := buildTrace(cfg.Trace)
	if err != nil {
		return err
	}
	cl, err := buildCluster(&cfg)
	if err != nil {
		return err
	}
	faults, err := buildFaults(cfg.Faults, cl, tr.Seconds())
	if err != nil {
		return err
	}
	alloc, err := allocator.ByName(cfg.ModelAllocation, nil)
	if err != nil {
		return err
	}
	batch, err := batching.ByName(cfg.Batching)
	if err != nil {
		return err
	}
	// The system's family set follows the trace's columns (a CSV trace may
	// cover a subset of the zoo).
	var fams []models.Family
	for _, name := range tr.Families {
		found := false
		for _, f := range models.Zoo() {
			if f.Name == name {
				fams = append(fams, f)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("trace family %q is not in the model zoo", name)
		}
	}
	// Run dumps embed an SLO-attribution section derived from the lifecycle
	// trace, so -tsdb/-report force the tracer on alongside -trace/-incidents.
	var tracer *telemetry.Tracer
	if *traceOut != "" || *incDir != "" || *tsdbOut != "" || *reportOut != "" {
		tracer = telemetry.NewTracer(0)
	}
	var registry *telemetry.Registry
	if *metricsOut != "" || *incDir != "" {
		registry = telemetry.NewRegistry()
	}
	var recorder *tsdb.Recorder
	// The guard's degradation path is triggered by the burn monitor, so an
	// enabled overload block forces a recorder even without -tsdb/-report
	// (dataplane.New refuses a degrading guard without one).
	// The flight recorder samples all three surfaces, so -incidents forces
	// the tracer, registry, and recorder on too.
	needRecorder := cfg.Overload != nil && cfg.Overload.Enabled && !cfg.Overload.DisableDegradation
	if *tsdbOut != "" || *reportOut != "" || *incDir != "" || needRecorder {
		var tc tsdb.Config
		if s := cfg.SLO; s != nil {
			sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
			tc.SampleInterval = sec(s.SampleIntervalS)
			tc.SLO = tsdb.SLOConfig{
				Target:      s.Target,
				BurnRate:    s.BurnRate,
				ShortWindow: sec(s.ShortWindowS),
				LongWindow:  sec(s.LongWindowS),
			}
		}
		recorder = tsdb.NewRecorder(tc)
	}
	maxRetries := 0 // zero takes the system default (1)
	if cfg.MaxRetries != nil {
		if maxRetries = *cfg.MaxRetries; maxRetries <= 0 {
			maxRetries = -1 // explicit zero budget
		}
	}
	var flight *flightrec.Recorder
	if *incDir != "" {
		flight = flightrec.New(flightrec.Config{Dir: *incDir})
	}
	sys, err := core.NewSystem(core.Config{
		Cluster:       cl,
		Families:      fams,
		SLOMultiplier: cfg.SLOMultiplier,
		Allocator:     alloc,
		Batching:      batch,
		Faults:        faults,
		Seed:          cfg.Seed,
		Tracer:        tracer,
		Telemetry:     registry,
		TSDB:          recorder,
		Flight:        flight,
		Overload:      buildOverload(cfg.Overload),
		MaxRetries:    maxRetries,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sys.Run(tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "allocation=%s batching=%s cluster=%d trace=%s (%ds, peak %.0f QPS)\n",
		cfg.ModelAllocation, cfg.Batching, cl.Size(), cfg.Trace.Kind, tr.Seconds(), tr.PeakQPS())
	if faults != nil {
		fmt.Fprintf(stdout, "faults: %d scheduled events\n", len(faults.Events))
	}
	if wall != nil {
		fmt.Fprintf(wall, "simulated in %v (wall)\n", time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(stdout, res.Summary)
	fmt.Fprintf(stdout, "re-allocations=%d model-loads=%d\n", len(res.Plans), res.ModelLoads)
	for q, s := range res.PerFamily {
		fmt.Fprintf(stdout, "  %-14s tput=%.1fqps acc=%.2f%% violations=%.4f\n",
			tr.Families[q], s.AvgThroughput, s.EffectiveAccuracy, s.ViolationRatio)
	}

	// output writes one output file through create.
	output := func(path string, write func(io.Writer) error) error {
		f, err := create(path)
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if *tsOut != "" {
		err := output(*tsOut, func(w io.Writer) error {
			return metrics.WriteSeriesCSV(w, cfg.ModelAllocation, res.Collector.Series(-1))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *tsOut)
	}
	if *traceOut != "" {
		// JSON lines when the path ends in .jsonl, Chrome trace_event JSON
		// (load into chrome://tracing or Perfetto) otherwise.
		write := tracer.WriteChromeTrace
		if strings.HasSuffix(*traceOut, ".jsonl") {
			write = tracer.WriteJSONL
		}
		if err := output(*traceOut, write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d events, %d dropped)\n", *traceOut, tracer.Len(), tracer.Dropped())
	}
	if *metricsOut != "" {
		if err := output(*metricsOut, registry.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *metricsOut)
	}
	if recorder != nil {
		var names []string
		for _, d := range cl.Devices() {
			names = append(names, d.Name)
		}
		din := report.BuildInput{
			Label:       fmt.Sprintf("%s/%s %s", cfg.ModelAllocation, cfg.Batching, cfg.Trace.Kind),
			Seed:        cfg.Seed,
			Collector:   res.Collector,
			Recorder:    recorder,
			Plans:       res.Plans,
			DeviceNames: names,
		}
		if tracer != nil {
			din.Events = tracer.Events()
			din.TraceDropped = tracer.Dropped()
		}
		dump := report.Build(din)
		if *tsdbOut != "" {
			if err := output(*tsdbOut, dump.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d samples, %d burn transitions)\n", *tsdbOut, len(dump.Samples), len(dump.Burns))
		}
		if *reportOut != "" {
			err := output(*reportOut, func(w io.Writer) error {
				_, err := w.Write(report.RenderHTML(dump))
				return err
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *reportOut)
		}
	}
	if flight != nil {
		if err := flight.WriteError(); err != nil {
			return fmt.Errorf("writing incident bundles: %w", err)
		}
		// Incidents keeps only the newest bundles; the log holds the run's,
		// from its first trigger on.
		n := 0
		if len(flight.Incidents()) > 0 {
			l, err := flightrec.ReadLog(*incDir)
			if err != nil {
				return err
			}
			n = len(l.IDs())
		}
		fmt.Fprintf(stdout, "incidents: %d bundles in %s\n", n, *incDir)
	}
	return nil
}

// loadConfig decodes a config file strictly — an unknown key (a typo, or a
// key an older version accepted) is an error naming it, never a silent
// default — and fills in the defaults.
func loadConfig(raw []byte) (config, error) {
	var cfg config
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, err
	}
	if dec.More() {
		return cfg, errors.New("trailing data after the config object")
	}
	applyDefaults(&cfg)
	return cfg, nil
}

func applyDefaults(cfg *config) {
	if cfg.ModelAllocation == "" {
		cfg.ModelAllocation = "ilp"
	}
	if cfg.Batching == "" {
		cfg.Batching = "accscale"
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 20
	}
	if cfg.SLOMultiplier <= 0 {
		cfg.SLOMultiplier = 2
	}
	if cfg.Trace.Kind == "" {
		cfg.Trace.Kind = "twitter"
	}
}

func buildTrace(tc traceConfig) (*trace.Trace, error) {
	switch tc.Kind {
	case "twitter":
		return trace.NewTwitter(trace.TwitterConfig{
			Seconds: tc.Seconds, BaseQPS: tc.BaseQPS, PeakQPS: tc.PeakQPS, Seed: tc.Seed,
		}), nil
	case "bursty":
		return trace.NewMacroBurst(trace.MacroBurstConfig{
			Seconds: tc.Seconds, LowQPS: tc.BaseQPS, HighQPS: tc.PeakQPS,
		}), nil
	case "adversarial":
		return trace.NewAdversarial(trace.AdversarialConfig{
			Seconds: tc.Seconds, BaseQPS: tc.BaseQPS, SpikeQPS: tc.PeakQPS,
			SpikeSeconds: tc.SpikeSeconds, PeriodSeconds: tc.PeriodSeconds,
		}), nil
	case "csv":
		f, err := os.Open(tc.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadCSV(f)
	}
	return nil, fmt.Errorf("proteus-sim: unknown trace kind %q", tc.Kind)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "proteus-sim: %v\n", err)
	os.Exit(1)
}
