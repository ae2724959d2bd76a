package attrib

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"proteus/internal/telemetry"
)

// byQuerySeq orders events by (query, seq): the comparison sort Analyze
// grouped the trace with before it grouped in one pass, kept as the oracle
// of groupByQuery.
type byQuerySeq []telemetry.Event

func (s byQuerySeq) Len() int      { return len(s) }
func (s byQuerySeq) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byQuerySeq) Less(i, j int) bool {
	if s[i].Query != s[j].Query {
		return s[i].Query < s[j].Query
	}
	return s[i].Seq < s[j].Seq
}

// oracleAnalyze is Analyze grouping by sorting a copy by (query, seq).
func oracleAnalyze(in Input) *Report {
	events := make([]telemetry.Event, 0, len(in.Events))
	for _, ev := range in.Events {
		if perQuery(ev.Kind) {
			events = append(events, ev)
		}
	}
	sort.Sort(byQuerySeq(events))
	queries := 0
	for i := range events {
		if i == 0 || events[i].Query != events[i-1].Query {
			queries++
		}
	}
	return explainRuns(events, queries, in)
}

// uniqueSeqs reports whether no two events share a Seq: the grouping then
// has one answer, which both the oracle and Analyze must find.
func uniqueSeqs(events []telemetry.Event) bool {
	seen := make(map[uint64]bool, len(events))
	for _, ev := range events {
		if seen[ev.Seq] {
			return false
		}
		seen[ev.Seq] = true
	}
	return true
}

// randomTrace records interleaved lifecycles of n queries through a tracer
// the way an engine does: one event at a time in time order, so Seqs are
// record order. Query ids come from ids; lifecycles are served, late,
// dropped on every cause, requeued and retried (possibly more than once) or
// unfinished, with burn and degrade events (query 0) between them.
func randomTrace(rng *rand.Rand, ids []uint64) []telemetry.Event {
	type pending struct {
		at    time.Duration
		kind  telemetry.EventKind
		query uint64
		fam   int
		dev   int
		ctx   telemetry.Ctx
	}
	var evs []pending
	for _, id := range ids {
		at := time.Duration(rng.Intn(1e9))
		fam, dev := rng.Intn(3), rng.Intn(4)
		ctx := telemetry.Ctx{Plan: int32(rng.Intn(3)), Episode: int32(rng.Intn(2))}
		add := func(kind telemetry.EventKind, cause telemetry.Cause) {
			c := ctx
			c.Cause = cause
			evs = append(evs, pending{at, kind, id, fam, dev, c})
			at += time.Duration(rng.Intn(5e6))
		}
		add(telemetry.EvArrival, telemetry.CauseNone)
		add(telemetry.EvRoute, telemetry.CauseNone)
		for retries := rng.Intn(3); retries > 0; retries-- {
			add(telemetry.EvEnqueue, telemetry.CauseNone)
			add(telemetry.EvRequeued, telemetry.Cause(1+rng.Intn(3)))
			add(telemetry.EvRetried, telemetry.CauseDeviceFailure)
		}
		add(telemetry.EvEnqueue, telemetry.CauseNone)
		switch rng.Intn(5) {
		case 0: // unfinished
		case 1:
			add(telemetry.EvDropped, telemetry.Cause(1+rng.Intn(9)))
		default:
			add(telemetry.EvExecStart, telemetry.CauseNone)
			add([]telemetry.EventKind{telemetry.EvDone, telemetry.EvLate}[rng.Intn(2)], telemetry.CauseNone)
		}
	}
	for range len(ids) / 4 {
		kind := []telemetry.EventKind{telemetry.EvSLOBurnStart, telemetry.EvSLOBurnEnd,
			telemetry.EvDegradeStart, telemetry.EvDegradeEnd}[rng.Intn(4)]
		evs = append(evs, pending{time.Duration(rng.Intn(1e9)), kind, 0, rng.Intn(3), -1, telemetry.Ctx{}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	tr := telemetry.NewTracer(len(evs) + 1)
	for _, p := range evs {
		tr.RecordCtx(p.at, p.kind, p.query, p.fam, p.dev, -1, p.ctx)
	}
	return tr.Events()
}

// spreadIDs renumbers the per-query events of evs, whose ids are 0..k-1, so
// that they span exactly span values from lo, the first and last id at the
// two ends and the order of ids kept.
func spreadIDs(evs []telemetry.Event, k int, lo, span uint64) {
	for i := range evs {
		if perQuery(evs[i].Kind) {
			evs[i].Query = lo + evs[i].Query*(span-1)/uint64(k-1)
		}
	}
}

// TestGroupingMatchesSortOracle holds the one-pass grouping to the sort it
// replaced: on seeded traces in and out of Seq order, with query 0, query
// ids sparse and far apart, heads the ring has evicted, and requeues,
// Analyze's report equals the oracle's. The last traces sit on both sides of
// the switch between grouping by id offset and by map: ids spanning one
// value fewer than the trace has events, and exactly as many; and a dense
// trace that lost the head of its lowest id to the ring.
func TestGroupingMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(name string, in Input) {
		t.Helper()
		want := oracleAnalyze(in)
		if got := Analyze(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d events): Analyze differs from the (query, seq) sort\n got: %+v\nwant: %+v", name, len(in.Events), got, want)
		}
	}
	for _, short := range []uint64{1, 0} {
		for trial := 0; trial < 20; trial++ {
			k := 2 + rng.Intn(30)
			ids := make([]uint64, k)
			for i := range ids {
				ids[i] = uint64(i)
			}
			events := randomTrace(rng, ids)
			span := uint64(len(events)) - short
			spreadIDs(events, k, uint64(rng.Intn(3))<<(rng.Intn(4)*20), span)
			check(fmt.Sprintf("ids spanning %d values of %d events", span, len(events)), Input{Events: events})
		}
	}
	for trial := 0; trial < 20; trial++ {
		ids := make([]uint64, 2+rng.Intn(30))
		for i := range ids {
			ids[i] = uint64(1000 + i)
		}
		events := randomTrace(rng, ids)
		// The ring evicts the first arrival; its query trades ids with the
		// lowest, which keeps everything but its head.
		first := slices.IndexFunc(events, func(ev telemetry.Event) bool { return perQuery(ev.Kind) })
		headless := events[first].Query
		events = events[first+1:]
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for i := range events {
			if !perQuery(events[i].Kind) {
				continue
			}
			switch events[i].Query {
			case headless:
				events[i].Query = ids[0]
			case ids[0]:
				events[i].Query = headless
			}
			lo, hi = min(lo, events[i].Query), max(hi, events[i].Query)
		}
		if lo != ids[0] || hi-lo >= uint64(len(events)-1) {
			t.Fatalf("trial %d: ids [%d, %d] over %d events is not a dense trace missing the head of %d", trial, lo, hi, len(events), ids[0])
		}
		check(fmt.Sprintf("dense trial %d", trial), Input{Events: events, TraceDropped: uint64(first + 1)})
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		ids := make([]uint64, n)
		for i := range ids {
			switch trial % 4 {
			case 0: // dense, as engines number queries
				ids[i] = uint64(i + 1)
			case 1: // sparse and far apart
				ids[i] = rng.Uint64()
			case 2: // the extremes, query 0 among them
				ids[i] = []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}[i%5] + uint64(i/5)*(1<<40)
			default: // query 0 and dense ids
				ids[i] = uint64(i)
			}
		}
		events := randomTrace(rng, ids)
		if rng.Intn(3) == 0 { // the ring evicted the head
			events = events[rng.Intn(len(events)):]
		}
		if trial%2 == 1 {
			rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		}
		check(fmt.Sprintf("trial %d", trial), Input{Events: events, TraceDropped: uint64(rng.Intn(2)), Window: time.Duration(1+rng.Intn(3)) * 100 * time.Millisecond})
	}
}
