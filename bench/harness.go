package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// End-to-end metric names. Every workload reports every one of them; what
// an "op" is (a query or one Allocate call) is fixed per workload and
// written down in README.md.
const (
	mSetup    = "setup_s"
	mOps      = "ops_per_s"
	mCPU      = "cpu_us_per_op"
	mLatP50   = "latency_slo_frac_p50"
	mLatTail  = "latency_slo_frac_tail"
	mSLOOK    = "slo_ok_pct"
	mAccuracy = "effective_accuracy_pct"
)

// world is the fixed part of every workload: the 20-device scaled testbed,
// the full model zoo, and the per-family SLOs at multiplier 2.
type world struct {
	cluster  *cluster.Cluster
	families []models.Family
	names    []string
	slos     []time.Duration
	slosNS   []float64
	zipf     *numeric.Zipf
}

const sloMultiplier = 2

// cheapSetupReps is how often a sub-millisecond set-up is repeated so that
// the median the run reports as setup_s is steady.
const cheapSetupReps = 201

func newWorld() *world {
	w := &world{cluster: cluster.ScaledTestbed(20), families: models.Zoo()}
	w.names = models.FamilyNames(w.families)
	for _, f := range w.families {
		slo := profiles.FamilySLO(f, sloMultiplier)
		w.slos = append(w.slos, slo)
		w.slosNS = append(w.slosNS, float64(slo))
	}
	w.zipf = numeric.NewZipf(len(w.families), 1.001)
	return w
}

// twitterTrace is the Twitter-like diurnal trace of the paper's evaluation
// (same shape parameters as proteus.NewTwitterTrace, 180→560 QPS).
func (w *world) twitterTrace(seconds int, seed uint64) *trace.Trace {
	const base, peak = 180.0, 560.0
	return trace.NewDiurnal(trace.DiurnalConfig{
		Seconds:           seconds,
		BaseQPS:           base,
		DiurnalAmplitude:  peak - base,
		PeriodSeconds:     seconds * 3,
		Spikes:            3,
		SpikeMagnitude:    peak / 8,
		SpikeWidthSeconds: seconds / 20,
		NoiseFrac:         0.03,
		ZipfAlpha:         1.001,
		FamilyPhaseSpread: 0.4,
		Families:          w.names,
		Seed:              seed,
	})
}

// input builds an allocation problem for the given per-family demand.
func (w *world) input(demand []float64) *allocator.Input {
	return &allocator.Input{Cluster: w.cluster, Families: w.families, SLOs: w.slos, Demand: demand}
}

// meanDemand averages the trace's per-family demand over [from, to) seconds
// and scales it by headroom — what the controller hands the allocator.
func meanDemand(tr *trace.Trace, from, to int, headroom float64) []float64 {
	if to > tr.Seconds() {
		to = tr.Seconds()
	}
	out := make([]float64, len(tr.Families))
	if to <= from {
		return out
	}
	for t := from; t < to; t++ {
		for q := range out {
			out[q] += tr.Demand[t][q]
		}
	}
	for q := range out {
		out[q] = out[q] / float64(to-from) * headroom
	}
	return out
}

// subSeed derives the k-th independent, non-zero seed from the run seed
// (splitmix64 finalizer), so trace synthesis, arrival expansion, routing and
// fault injection never share a stream.
func subSeed(seed uint64, k uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// checkingAllocator wraps the allocator under a system so the harness sees
// every plan and verifies it with Allocation.Check against its own input.
// It reads no clock: the simulator calls it from inside a seed-reproducible
// run, and proteus-lint's nondet check follows the call through the
// Allocator interface.
type checkingAllocator struct {
	allocator.Allocator
	plans    int
	failures []string
	first    *allocator.Allocation
	firstIn  *allocator.Input
}

func (c *checkingAllocator) Allocate(in *allocator.Input) (*allocator.Allocation, error) {
	plan, err := c.Allocator.Allocate(in)
	if err != nil {
		return plan, err
	}
	c.plans++
	if cerr := plan.Check(in); cerr != nil {
		c.failures = append(c.failures, fmt.Sprintf("plan %d fails Check: %v", c.plans, cerr))
	}
	if c.first == nil {
		c.first, c.firstIn = plan, in
	}
	return plan, nil
}

// usage is a point reading of the process's CPU time and allocation
// counters. ReadMemStats stops the world, so readings bracket whole timed
// regions and never sit inside one.
type usage struct {
	at      time.Time
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
}

// settle collects the garbage of whatever ran before (set-up, the previous
// replay) so that a timed region starts from a quiet heap and pays only for
// its own allocation.
func settle() { runtime.GC() }

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// since returns the deltas from an earlier reading to now.
func (u usage) since() (wall, cpu time.Duration, bytes, mallocs uint64) {
	n := readUsage()
	return n.at.Sub(u.at), n.cpu - u.cpu, n.bytes - u.bytes, n.mallocs - u.mallocs
}

// leg is one execution of one workload, untraced or traced.
type leg struct {
	attempted, failed int
	// missed counts operations that completed but not on time (late or
	// dropped queries); they lower slo_ok_pct and are not failures.
	missed   int
	problems []string
	// notes are extra lines for the printed table.
	notes   []string
	setupS  []float64
	e2e     map[string]float64
	samples map[string]int
	// raw holds the unnormalised value of a normalised metric, for the
	// printed table; speed is the leg's median machine-speed factor (0 when
	// the workload is not normalised).
	raw   map[string]float64
	speed float64
	// layer holds per-layer observations, filled only when traced.
	layer map[string]float64
	feed  *feed
}

func newLeg() *leg {
	return &leg{e2e: map[string]float64{}, samples: map[string]int{}, raw: map[string]float64{}, layer: map[string]float64{}}
}

func (l *leg) problemf(format string, args ...interface{}) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// feed is what a workload hands the layer probes: its own arrivals, its
// first plan and that plan's input.
type feed struct {
	arrivals []trace.Arrival
	plan     *allocator.Allocation
	input    *allocator.Input
	// events and plans are the incident leg's lifecycle trace and decision
	// audit log, for the attribution and flight-recorder probes.
	events []telemetry.Event
	plans  []controlplane.PlanRecord
}

// runEnv is what a workload gets for one leg.
type runEnv struct {
	world *world
	seed  uint64
	// budget is how long the leg measures; replays repeat until it is spent.
	budget time.Duration
	// scale shrinks the workload's own size (trace length, send window) for
	// the companion legs of a traced run and for tests; 1 is full size.
	scale float64
	// spans is nil when untraced.
	spans *spanRecorder
	// tmpDir is a scratch directory inside the checkout.
	tmpDir string
}

func (e *runEnv) traced() bool { return e.spans != nil }

// calibrate reads the machine speed for a full-size leg. Reduced-size legs
// (companions of a traced run, tests) never feed an end-to-end number, so
// they skip the kernel and count as nominal speed.
func (e *runEnv) calibrate() time.Duration {
	if e.scale < 1 {
		return calibNominal
	}
	return calibrate()
}

// scaled returns n shrunk by the leg's scale, at least min.
func (e *runEnv) scaled(n, min int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// workload is one entry of BENCHMARK.json's workloads list, which also
// records why it exists.
type workload struct {
	name string
	run  func(env *runEnv) (*leg, error)
}

// makeTmpDir creates the harness's scratch directory under the current
// directory (the checkout root), never outside it.
func makeTmpDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// pinProcs pins GOMAXPROCS to min(nproc, 4) and returns it.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}
