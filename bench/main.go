// Command bench is the repository's layered benchmark: four seeded workloads
// (simulator steady and incident, the live data path, the allocation solve)
// measured end to end, and in a separate traced run broken down per layer.
// See README.md for usage, the metric glossary and how the numbers interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []workload{simSteady, simIncident, liveSteady, allocReplay}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	traceOut  string
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: drives trace synthesis, family draws, the send schedule and faults")
	flag.IntVar(&o.seconds, "seconds", 0, "seconds each workload measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: harness spans and per-layer metrics instead of end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the spans of a traced run to this file (implies -trace 1)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and fail if any end-to-end metric moves by more than its bound")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.traceOut != "" {
		o.trace = 1
	}
	procs := pinProcs()
	fmt.Printf("# proteus bench: GOMAXPROCS=%d nproc=%d %s %s/%s seed=%d seconds=%d\n",
		procs, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, o.seed, o.seconds)

	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	tmp, err := makeTmpDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	h := &harness{spec: spec, opts: o, world: newWorld(), tmpDir: tmp}

	if o.selfcheck {
		return h.selfcheck(selected)
	}
	ok := true
	var allSpans []span
	for _, w := range selected {
		var line resultLine
		if o.trace == 1 {
			var spans []span
			line, spans, err = h.tracedRun(w)
			allSpans = append(allSpans, spans...)
		} else {
			line, err = h.untracedRun(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ok = ok && line.Correct
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, allSpans); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// harness carries what every run shares.
type harness struct {
	spec   *benchSpec
	opts   options
	world  *world
	tmpDir string
}

func (h *harness) env(budget time.Duration, scale float64, spans *spanRecorder) *runEnv {
	return &runEnv{world: h.world, seed: h.opts.seed, budget: budget, scale: scale, spans: spans, tmpDir: h.tmpDir}
}

// untracedRun measures one workload end to end and prints its table.
func (h *harness) untracedRun(w workload) (resultLine, error) {
	l, err := w.run(h.env(time.Duration(h.opts.seconds)*time.Second, 1, nil))
	if err != nil {
		return resultLine{}, err
	}
	l.e2e[mSetup] = median(l.setupS)
	l.samples[mSetup] = len(l.setupS)
	line := resultLine{
		Correct:   len(l.problems) == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("\n== %s: attempted %d, succeeded %d, failed %d, missed SLO %d\n",
		w.name, l.attempted, l.attempted-l.failed, l.failed, l.missed)
	for _, m := range h.spec.EndToEnd {
		v, ok := l.e2e[m.Name]
		if !ok {
			return resultLine{}, fmt.Errorf("workload did not report %s", m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		raw := ""
		if r, ok := l.raw[m.Name]; ok {
			raw = fmt.Sprintf("  (raw %.6g)", r)
		}
		fmt.Printf("  %-24s %14.6g %-6s n=%d%s\n", m.Name, v, m.Unit, l.samples[m.Name], raw)
	}
	if l.speed > 0 {
		fmt.Printf("  times are in reference seconds; machine speed during the run: %.3f of nominal\n", l.speed)
	}
	for _, n := range l.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range l.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	return line, nil
}

// selfcheck runs the untraced set twice on the same build and fails if any
// end-to-end metric got worse from one set to the other by more than its
// bound, in either direction.
func (h *harness) selfcheck(selected []workload) error {
	type set map[string]map[string]float64
	sets := []set{{}, {}}
	for i := range sets {
		for _, w := range selected {
			line, err := h.untracedRun(w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s: output checks failed", w.name)
			}
			sets[i][w.name] = map[string]float64{}
			for k, v := range line.Metrics {
				sets[i][w.name][k] = v.Value
			}
		}
	}
	fmt.Printf("\n== selfcheck: two sets, same build, seed %d\n", h.opts.seed)
	fmt.Printf("  %-14s %-24s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	var bad []string
	for _, w := range selected {
		for _, m := range h.spec.EndToEnd {
			a, b := sets[0][w.name][m.Name], sets[1][w.name][m.Name]
			diff := relDiff(a, b)
			flag := ""
			if diff > m.Bound {
				flag = "  OUT OF BOUND"
				bad = append(bad, w.name+"/"+m.Name)
			}
			fmt.Printf("  %-14s %-24s %14.6g %14.6g %7.2f%% %5.1f%%%s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, flag)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %s moved by more than the bound between two runs of the same build", strings.Join(bad, ", "))
	}
	return nil
}

// relDiff is |a-b| as a share of the smaller magnitude, so the answer does
// not depend on which run came first.
func relDiff(a, b float64) float64 {
	lo := a
	if b < lo {
		lo = b
	}
	if lo <= 0 {
		if a == b {
			return 0
		}
		return 1
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / lo
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
