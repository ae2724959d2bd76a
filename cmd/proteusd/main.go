// Command proteusd starts the live Proteus serving cluster: goroutine
// workers standing in for the paper's 40 machines, the MILP resource
// manager re-allocating in the background, and an HTTP API:
//
//	POST /v1/query?family=resnet   serve one inference query
//	GET  /v1/stats                 run metrics so far
//	GET  /v1/allocation            current device → variant plan
//	GET  /v1/families              registered applications
//	GET  /metrics                  counter/gauge snapshot (text key-value)
//	GET  /healthz                  device health mask (503 when all down)
//	GET  /debug/allocations        controller decision audit log (JSON)
//	GET  /debug/incidents          retained flight-recorder incident bundles
//	POST /debug/incident           trigger a manual incident bundle
//	GET  /debug/query?id=N         live SLO attribution for one query
//	GET  /debug/pprof/             Go runtime profiles
//
// /metrics also speaks Prometheus text exposition format (0.0.4) under
// content negotiation: an Accept header naming version=0.0.4 or
// openmetrics, or ?format=prometheus, selects it. -incident-dir enables
// the black-box flight recorder: SLO burn starts, overload degradations,
// allocator fallbacks, device failures, and manual POSTs snapshot recent
// observability state into incident bundle JSON files there.
//
// With -drive it also generates client load against itself for the given
// duration and prints the resulting summary, exercising the full data path
// end to end.
//
// SIGINT/SIGTERM trigger a graceful drain: the server stops admitting,
// in-flight batches finish (bounded by -drain-timeout), final outputs are
// written (-metrics-out, -tsdb-out), and the process exits 0. -overload
// enables the fast-path overload guard; /healthz then reports per-device
// saturation and any active emergency-degradation episode.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"proteus"
	"proteus/internal/numeric"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		clusterSz  = flag.Int("cluster", 8, "cluster size (2:1:1 CPU:1080Ti:V100)")
		devices    = flag.String("devices", "", `explicit fleet as "type:count" pairs, e.g. "cpu:4,v100:2" (overrides -cluster)`)
		allocName  = flag.String("allocation", "ilp", "resource allocator (ilp, infaas_v2, sommelier, clipper-ht, clipper-ha)")
		batchName  = flag.String("batching", "accscale", "batching policy (accscale, nexus, aimd, static-N)")
		period     = flag.Duration("period", 10*time.Second, "re-allocation period")
		drive      = flag.Duration("drive", 0, "self-drive duration (0 = serve forever)")
		driveQPS   = flag.Float64("drive-qps", 100, "total QPS during self-drive")
		seed       = flag.Uint64("seed", 1, "random seed")
		drainTO    = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown bound: how long SIGINT/SIGTERM waits for in-flight queries")
		maxRetries = flag.Int("max-retries", 1, "per-query re-route budget after a device failure (0 drops stranded queries immediately)")
		overloadOn = flag.Bool("overload", false, "enable the overload guard: deadline admission control, backpressure, emergency accuracy degradation")
		metricsOut = flag.String("metrics-out", "", "write the final counter snapshot here on shutdown")
		tsdbOut    = flag.String("tsdb-out", "", "write the final run dump JSON here on shutdown")
		incDir     = flag.String("incident-dir", "", "enable the flight recorder and write incident bundles to this directory")
	)
	flag.Parse()

	cl := proteus.ScaledTestbed(*clusterSz)
	if *devices != "" {
		var err error
		cl, err = parseDevices(*devices)
		if err != nil {
			fatal(err)
		}
	}
	alloc, err := proteus.NewAllocator(*allocName, &proteus.MILPOptions{
		// Safety net for a live control loop: a solve it cuts short is marked
		// time_limited in the audit log.
		TimeLimit: 20 * time.Second,
	})
	if err != nil {
		fatal(err)
	}
	batch, err := proteus.NewBatching(*batchName)
	if err != nil {
		fatal(err)
	}
	fams := proteus.Zoo()
	names := proteus.FamilyNames(fams)
	z := numeric.NewZipf(len(fams), 1.001)
	initial := make([]float64, len(fams))
	for q := range initial {
		initial[q] = *driveQPS * z.P(q)
	}
	registry := proteus.NewTelemetryRegistry()
	var recorder *proteus.TSDBRecorder
	if *tsdbOut != "" || *overloadOn || *incDir != "" {
		// The guard's degradation path is triggered by the burn monitor, so
		// -overload needs a recorder even when no dump was requested; the
		// flight recorder samples it too.
		recorder = proteus.NewTSDBRecorder(proteus.TSDBConfig{})
	}
	// A bounded tracer is always on: it feeds GET /debug/query live SLO
	// attribution, the run dump's attribution section, and — when an
	// incident dir is configured — the bundle's trace tail.
	tracer := proteus.NewTracer(1 << 16)
	var flight *proteus.FlightRecorder
	if *incDir != "" {
		if err := os.MkdirAll(*incDir, 0o755); err != nil {
			fatal(err)
		}
		// Live mode adds process runtime snapshots and allows pprof capture
		// via POST /debug/incident?profile=cpu,heap.
		flight = proteus.NewFlightRecorder(proteus.FlightConfig{Dir: *incDir, Live: true})
	}
	var guard *proteus.OverloadConfig
	if *overloadOn {
		guard = &proteus.OverloadConfig{Enabled: true}
	}
	mr := *maxRetries
	if mr <= 0 {
		mr = -1 // explicit zero budget (0 means "default" inside the config)
	}
	srv, err := proteus.NewLiveServer(proteus.LiveConfig{
		Cluster:       cl,
		Families:      fams,
		Allocator:     alloc,
		Batching:      batch,
		ControlPeriod: *period,
		InitialDemand: initial,
		Telemetry:     registry,
		Tracer:        tracer,
		TSDB:          recorder,
		Flight:        flight,
		Overload:      guard,
		MaxRetries:    mr,
		Seed:          *seed,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	if *drive > 0 {
		fmt.Printf("self-driving %v at %.0f QPS across %d families...\n", *drive, *driveQPS, len(fams))
		driveLoad(srv, names, *driveQPS, *drive, *seed)
		s := srv.Summary()
		fmt.Println(s)
		fmt.Println("per-device allocation:")
		printAllocation(srv)
		srv.Drain(*drainTO)
		writeFinal(srv, registry, recorder, tracer, cl, *metricsOut, *tsdbOut, *seed)
		return
	}

	fmt.Printf("proteusd: serving %d families on %d devices at %s (allocation=%s batching=%s)\n",
		len(fams), cl.Size(), *addr, *allocName, *batchName)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case got := <-sig:
		fmt.Printf("proteusd: received %s, draining (%d in flight, timeout %v)\n",
			got, srv.Inflight(), *drainTO)
		if srv.Drain(*drainTO) {
			fmt.Println("proteusd: drained cleanly")
		} else {
			fmt.Printf("proteusd: drain timeout hit with %d queries still in flight\n", srv.Inflight())
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		writeFinal(srv, registry, recorder, tracer, cl, *metricsOut, *tsdbOut, *seed)
	}
}

// writeFinal dumps the run's observability outputs at shutdown: the counter
// snapshot and the full run dump (windowed metrics, device time-series, SLO
// burn log, decision audit).
func writeFinal(srv *proteus.LiveServer, registry *proteus.TelemetryRegistry, recorder *proteus.TSDBRecorder, tracer *proteus.Tracer, cl *proteus.Cluster, metricsOut, tsdbOut string, seed uint64) {
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := registry.WriteText(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", metricsOut)
	}
	if tsdbOut != "" && recorder != nil {
		var devNames []string
		for _, d := range cl.Devices() {
			devNames = append(devNames, d.Name)
		}
		dump := proteus.BuildRunDump(proteus.RunDumpInput{
			Label:        "proteusd",
			Seed:         seed,
			Collector:    srv.Collector(),
			Recorder:     recorder,
			Plans:        srv.History(),
			DeviceNames:  devNames,
			Events:       tracer.Events(),
			TraceDropped: tracer.Dropped(),
		})
		if err := dump.WriteFile(tsdbOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d samples, %d burn transitions)\n", tsdbOut, len(dump.Samples), len(dump.Burns))
	}
}

// driveLoad fires Poisson traffic at the server's internal API.
func driveLoad(srv *proteus.LiveServer, families []string, qps float64, d time.Duration, seed uint64) {
	rng := numeric.NewRNG(seed + 99)
	z := numeric.NewZipf(len(families), 1.001)
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		gap := rng.Exp(qps)
		time.Sleep(time.Duration(gap * float64(time.Second)))
		fam := families[z.Sample(rng)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Infer(fam)
		}()
	}
	wg.Wait()
}

func printAllocation(srv *proteus.LiveServer) {
	alloc := srv.Allocation()
	devices := make([]string, 0, len(alloc))
	for d := range alloc {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, d := range devices {
		v := alloc[d]
		if v == "" {
			v = "(idle)"
		}
		fmt.Printf("  %-14s %s\n", d, v)
	}
}

// parseDevices turns "cpu:4,v100:2" into a validated cluster. Unknown device
// types come back as errors, not panics.
func parseDevices(spec string) (*proteus.Cluster, error) {
	var counts []proteus.TypeCount
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		typ, cnt, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-devices entry %q: want type:count", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(cnt))
		if err != nil {
			return nil, fmt.Errorf("-devices entry %q: bad count: %v", part, err)
		}
		counts = append(counts, proteus.TypeCount{
			Type:  proteus.DeviceType(strings.TrimSpace(typ)),
			Count: n,
		})
	}
	return proteus.NewClusterFromSpec(counts)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "proteusd: %v\n", err)
	os.Exit(1)
}
