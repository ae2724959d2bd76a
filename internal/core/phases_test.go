package core

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/metrics"
	"proteus/internal/tsdb"
)

// TestPhaseConservation: a query's admission, queue and exec phases
// partition its latency, so the recorder's phase rows agree with the
// collector. A device failure strands queued queries, which re-enter
// routing; their requeue wait must still be counted.
func TestPhaseConservation(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 30*time.Second, 60*time.Second)
	cfg.TSDB = tsdb.NewRecorder(tsdb.Config{})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 300, 90))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requeued == 0 {
		t.Fatal("the failure stranded no queries: the run no longer covers requeues")
	}
	checkPhaseConservation(t, cfg.TSDB.PhaseStats(), res.Collector, len(cfg.Families))
}

// checkPhaseConservation holds phase rows to collector c: each phase of a
// family counts the family's served and late queries, the device rows count
// them all, and a family's phase means add up to its mean latency within
// the 3 µs that three whole-microsecond means can lose.
func checkPhaseConservation(t *testing.T, rows []tsdb.PhaseStat, c *metrics.Collector, families int) {
	t.Helper()
	type key struct {
		scope string
		index int
	}
	count := map[key]map[string]uint64{}
	meanSum := map[int]int64{}
	devices := map[string]uint64{}
	for _, r := range rows {
		k := key{r.Scope, r.Index}
		if count[k] == nil {
			count[k] = map[string]uint64{}
		}
		count[k][r.Phase] = r.Count
		switch r.Scope {
		case "family":
			meanSum[r.Index] += r.MeanUS
		case "device":
			devices[r.Phase] += r.Count
		}
	}
	var total uint64
	for f := range families {
		s := c.Summarize(f)
		done := uint64(s.Served + s.Late)
		total += done
		for p := range tsdb.NumPhases {
			phase := tsdb.Phase(p).String()
			if got := count[key{"family", f}][phase]; got != done {
				t.Errorf("family %d %s: %d queries, want served+late = %d", f, phase, got, done)
			}
		}
		if d := meanSum[f] - s.MeanLatency.Microseconds(); d < -3 || d > 3 {
			t.Errorf("family %d: phase means sum to %d µs, mean latency is %v", f, meanSum[f], s.MeanLatency)
		}
	}
	if total == 0 {
		t.Fatal("no query completed")
	}
	for p := range tsdb.NumPhases {
		phase := tsdb.Phase(p).String()
		if devices[phase] != total {
			t.Errorf("device rows count %d %s phases, want %d", devices[phase], phase, total)
		}
	}
}
