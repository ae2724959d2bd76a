// Package attrib is the latency attribution engine: it reconstructs each
// query's causal chain from the lifecycle trace, decomposes end-to-end
// latency into named components that sum exactly (integer nanoseconds) to
// the measured total, and assigns every SLO-violated query a blame label
// derived from which control plan, overload episode, or fault was active
// during the dominant component. The engine is pure and deterministic: the
// same trace produces byte-identical explanations, so same-seed runs can be
// diffed (the CI attribution smoke does exactly that).
//
// Attribution is a join, not a re-simulation. Trace events carry the plan
// sequence number and overload episode id that were in force when they were
// recorded (telemetry.Ctx), and drop/requeue/retry events carry a cause;
// the engine only differences timestamps and reads those stamps. Component
// assignment follows the query's state between consecutive events:
//
//	arrival/route  → admission      (pre-queue routing and admission)
//	enqueue        → queue_wait     (waiting in a device queue)
//	exec_start     → exec           (executing)
//	…→ requeued    → reroute_<cause> (time wasted leading into a requeue —
//	                                 queued or executing on a device whose
//	                                 work never completed — plus the span
//	                                 from the requeue to the next enqueue;
//	                                 split per retry cause)
//
// The gaps partition [first event, last event], so the components conserve
// the end-to-end latency by construction; TestConservationProperty asserts
// it to the nanosecond across seeds.
package attrib

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
)

// Component names one slice of a query's end-to-end latency.
type Component uint8

// Latency components, in waterfall order.
const (
	CompAdmission Component = iota
	CompQueueWait
	CompExec
	CompRerouteFailure
	CompRerouteStale
	CompRerouteMidflight

	NumComponents
)

var componentNames = [NumComponents]string{
	CompAdmission:        "admission",
	CompQueueWait:        "queue_wait",
	CompExec:             "exec",
	CompRerouteFailure:   "reroute_device_failure",
	CompRerouteStale:     "reroute_stale_route",
	CompRerouteMidflight: "reroute_midflight",
}

// String returns the stable wire name of the component.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// Blame labels a violated query's root cause. The label set is closed so
// summaries can bucket deterministically.
type Blame string

// Blame labels.
const (
	// BlameNone marks queries that met their SLO (no blame assigned).
	BlameNone Blame = ""
	// BlameBurstQueueing: queue wait dominated with no plan change or
	// overload episode in flight — the plan was simply underwater for the
	// arrival burst it was serving.
	BlameBurstQueueing Blame = "burst_queueing"
	// BlameStalePlan: queue wait dominated and a newer plan took effect
	// while the query was in flight — it queued behind a plan the
	// controller had already decided to replace.
	BlameStalePlan Blame = "stale_plan"
	// BlameOverloadQueueing: queue wait dominated while an emergency
	// degradation episode was active for the family.
	BlameOverloadQueueing Blame = "overload_queueing"
	// BlameFailureReroute: the re-route penalty dominated, or the query
	// died on its retry budget — a device failure (or stale route /
	// mid-flight death) cost it the SLO.
	BlameFailureReroute Blame = "failure_reroute"
	// BlameDegradedExec: execution dominated while an overload episode was
	// active — the query ran, but on the guard's degraded ladder.
	BlameDegradedExec Blame = "degraded_exec"
	// BlameSlowExec: execution dominated with no episode active (an
	// oversized batch or a slow variant).
	BlameSlowExec Blame = "slow_exec"
	// BlameAdmissionStall: pre-queue admission/routing dominated.
	BlameAdmissionStall Blame = "admission_stall"
	// BlameAdmissionShed: dropped by deadline admission control.
	BlameAdmissionShed Blame = "admission_shed"
	// BlameBackpressureBan: dropped with no route while an overload episode
	// was active — the guard's backpressure ban masked the replicas.
	BlameBackpressureBan Blame = "backpressure_ban"
	// BlameNoRoute: dropped with no serving device and no episode active.
	BlameNoRoute Blame = "no_route"
	// BlamePolicyDrop: shed by the batching policy.
	BlamePolicyDrop Blame = "policy_drop"
	// BlameDraining: refused during graceful shutdown.
	BlameDraining Blame = "draining"
	// BlameUnknown: the trace was too truncated to attribute.
	BlameUnknown Blame = "unknown"
)

// Outcome is a query's terminal state in the trace.
type Outcome string

// Outcomes.
const (
	OutcomeServed  Outcome = "served"
	OutcomeLate    Outcome = "late"
	OutcomeDropped Outcome = "dropped"
)

// Explanation is one query's attributed latency waterfall.
type Explanation struct {
	Query   uint64  `json:"query"`
	Family  int32   `json:"family"`
	Outcome Outcome `json:"outcome"`
	// Start and End bound the observed lifecycle (nanoseconds since trace
	// origin); E2E = End - Start and equals the component sum exactly.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	E2E   time.Duration `json:"e2e_ns"`
	// Components holds the per-component nanoseconds, indexed by Component.
	Components [NumComponents]int64 `json:"components_ns"`
	// Retries counts re-route grants (retried events).
	Retries int `json:"retries"`
	// Cause is the drop cause for dropped queries ("" otherwise).
	Cause string `json:"cause,omitempty"`
	// Blame is the root-cause label ("" when the query met its SLO).
	Blame Blame `json:"blame,omitempty"`
	// Detail is a one-line human explanation of the blame.
	Detail string `json:"detail,omitempty"`
	// PlanAtEnqueue and PlanAtEnd are the control-plan sequence numbers
	// stamped on the first enqueue and the terminal event; they differ when
	// a re-allocation took effect mid-flight.
	PlanAtEnqueue int32 `json:"plan_at_enqueue"`
	PlanAtEnd     int32 `json:"plan_at_end"`
	// Episode is the overload episode id observed on any of the query's
	// events (0 when none).
	Episode int32 `json:"episode,omitempty"`
	// Device is the last device the query was enqueued on (-1 if never).
	Device int32 `json:"device"`
	// Incomplete marks explanations whose first event is not an arrival —
	// the ring buffer evicted the head of this query's trace, so the
	// decomposition covers only the surviving suffix.
	Incomplete bool `json:"incomplete,omitempty"`
}

// Dominant returns the largest component (ties break toward the earlier
// waterfall stage, keeping the choice deterministic).
func (e *Explanation) Dominant() Component {
	best := Component(0)
	for c := Component(1); c < NumComponents; c++ {
		if e.Components[c] > e.Components[best] {
			best = c
		}
	}
	return best
}

// BlameCount is one blame label's tally in a summary bucket.
type BlameCount struct {
	Blame Blame `json:"blame"`
	Count int   `json:"count"`
}

// FamilySummary aggregates attribution per model family.
type FamilySummary struct {
	Family int32  `json:"family"`
	Name   string `json:"name,omitempty"`
	// Queries counts finished queries; Violated = Late + Dropped.
	Queries  int `json:"queries"`
	Violated int `json:"violated"`
	Late     int `json:"late"`
	Dropped  int `json:"dropped"`
	// Blames tallies violated queries per blame label, ordered by count
	// descending (ties by label) for stable rendering.
	Blames []BlameCount `json:"blames,omitempty"`
	// ViolatedComponents sums the per-component nanoseconds over violated
	// queries: where the missed deadlines actually went.
	ViolatedComponents [NumComponents]int64 `json:"violated_components_ns"`
}

// WindowSummary aggregates attribution per arrival-time window.
type WindowSummary struct {
	// Start is the window's inclusive start (nanoseconds since origin).
	Start    time.Duration `json:"start_ns"`
	Queries  int           `json:"queries"`
	Violated int           `json:"violated"`
	Blames   []BlameCount  `json:"blames,omitempty"`
}

// Report is the full attribution output for one run.
type Report struct {
	// Queries holds every finished query's explanation, ordered by first
	// trace appearance (ascending query id within equal start times).
	Queries []Explanation `json:"queries"`
	// Violated lists indices into Queries for late/dropped queries, worst
	// (largest E2E) first — the proteus-explain top-K order.
	Violated []int `json:"violated"`
	// Unfinished counts queries with no terminal event in the trace.
	Unfinished int `json:"unfinished"`
	// Families and Windows are the aggregate blame tables.
	Families []FamilySummary `json:"families"`
	Windows  []WindowSummary `json:"windows"`
	// TraceDropped is the ring-wrap eviction count; when nonzero (or any
	// per-query trace lost its head) Incomplete is set and explanations
	// must be read as lower bounds.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	Incomplete   bool   `json:"incomplete,omitempty"`
}

// Input configures one attribution pass.
type Input struct {
	// Events is the lifecycle trace, in any order; in Seq order, as the
	// tracer and a written trace give it, it is grouped without a sort.
	Events []telemetry.Event
	// Plans is the controller's decision audit history, used to name the
	// trigger behind a stale_plan blame. Optional.
	Plans []controlplane.PlanRecord
	// FamilyNames labels family summaries. Optional.
	FamilyNames []string
	// Window is the summary bucket width (default 10s); a trace too long
	// for 65 536 buckets of it gets a whole multiple.
	Window time.Duration
	// TraceDropped is the tracer's ring-wrap eviction count.
	TraceDropped uint64
}

// perQuery reports whether kind belongs to a single query's lifecycle (burn
// and degrade events are per family and carry query id 0).
func perQuery(kind telemetry.EventKind) bool {
	switch kind {
	case telemetry.EvSLOBurnStart, telemetry.EvSLOBurnEnd,
		telemetry.EvDegradeStart, telemetry.EvDegradeEnd:
		return false
	}
	return true
}

// rerouteComponent maps a requeue cause to its re-route penalty component.
func rerouteComponent(cause telemetry.Cause) Component {
	switch cause {
	case telemetry.CauseStaleRoute:
		return CompRerouteStale
	case telemetry.CauseMidflight:
		return CompRerouteMidflight
	default:
		return CompRerouteFailure
	}
}

// Analyze runs the attribution pass: group the trace per query, decompose
// each finished query's latency, blame the violated ones, and aggregate.
// Grouping is one counting pass and one scatter over the trace, indexed by
// query id when the ids are dense, as an engine numbers them; it sorts a
// copy by Seq first only when the trace is out of Seq order, which the
// tracer's Events and ReadJSONL of a written trace never are.
func Analyze(in Input) *Report {
	events, queries := groupByQuery(in.Events)
	return explainRuns(events, queries, in)
}

// groupByQuery returns the per-query events of evs with each query's events
// contiguous and in Seq order, and the number of queries. Burn/degrade
// events (query 0, per family) are dropped so they can't interleave with a
// real query 0. A counting pass sizes each query's group and a scatter fills
// them in trace order, so each keeps the trace's Seq order. When the query
// ids span fewer values than evs has events, as an engine numbers them, a
// query's group is its id's offset from the lowest, and ids with no events
// leave empty groups; otherwise (a foreign trace, fuzz input) each query
// gets a group in order of first appearance through a map. Group order is
// free: explainRuns sorts the explanations by (Start, Query).
func groupByQuery(evs []telemetry.Event) ([]telemetry.Event, int) {
	bySeq := func(a, b telemetry.Event) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(evs, bySeq) {
		evs = slices.Clone(evs)
		slices.SortFunc(evs, bySeq)
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range evs {
		if perQuery(evs[i].Kind) {
			lo, hi = min(lo, evs[i].Query), max(hi, evs[i].Query)
		}
	}
	dense := lo <= hi && hi-lo < uint64(len(evs)-1)
	var group map[uint64]int32
	gid := make([]int32, len(evs))
	var next []int32 // per group: its size, then where its next event goes
	if dense {
		next = make([]int32, hi-lo+1)
	} else {
		group = make(map[uint64]int32)
	}
	for i := range evs {
		if !perQuery(evs[i].Kind) {
			gid[i] = -1
			continue
		}
		g := int32(evs[i].Query - lo)
		if !dense {
			var ok bool
			if g, ok = group[evs[i].Query]; !ok {
				g = int32(len(next))
				group[evs[i].Query] = g
				next = append(next, 0)
			}
		}
		next[g]++
		gid[i] = g
	}
	var n int32
	queries := 0
	for g, size := range next {
		if size > 0 {
			queries++
		}
		next[g] = n
		n += size
	}
	out := make([]telemetry.Event, n)
	for i, g := range gid {
		if g >= 0 {
			out[next[g]] = evs[i]
			next[g]++
		}
	}
	return out, queries
}

// explainRuns explains the queries of events, which holds each of them as
// one contiguous run in Seq order.
func explainRuns(events []telemetry.Event, queries int, in Input) *Report {
	window := in.Window
	if window <= 0 {
		window = 10 * time.Second
	}
	rep := &Report{
		Queries:      make([]Explanation, 0, queries),
		TraceDropped: in.TraceDropped,
		Incomplete:   in.TraceDropped > 0,
	}
	maxFamily := int32(-1)
	for start := 0; start < len(events); {
		end := start + 1
		for end < len(events) && events[end].Query == events[start].Query {
			end++
		}
		exp, finished := explainQuery(events[start:end], in.Plans)
		start = end
		if !finished {
			rep.Unfinished++
			continue
		}
		if exp.Incomplete {
			rep.Incomplete = true
		}
		if exp.Family > maxFamily {
			maxFamily = exp.Family
		}
		rep.Queries = append(rep.Queries, exp)
	}

	// Re-order by lifecycle start (ties by query id, and query ids are
	// unique): trace order groups retries late, but readers think in arrival
	// order.
	slices.SortFunc(rep.Queries, func(a, b Explanation) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Query, b.Query))
	})

	rep.summarize(maxFamily, window, in.FamilyNames)
	return rep
}

// explainQuery decomposes one query's event run (sorted by seq). finished is
// false when the run has no terminal event.
func explainQuery(run []telemetry.Event, plans []controlplane.PlanRecord) (Explanation, bool) {
	exp := Explanation{
		Query:  run[0].Query,
		Family: run[0].Family,
		Start:  run[0].At,
		Device: -1,
	}
	if run[0].Kind != telemetry.EvArrival {
		exp.Incomplete = true
	}

	// rerouting is the active re-route penalty component while the query is
	// between a requeued event and its next enqueue (or terminal drop).
	rerouting := false
	var rerouteComp Component
	finished := false
	for i, ev := range run {
		if ev.Kind == telemetry.EvEnqueue {
			exp.Device = ev.Device
			if exp.PlanAtEnqueue == 0 {
				exp.PlanAtEnqueue = ev.Plan
			}
			rerouting = false
		}
		if ev.Episode != 0 && exp.Episode == 0 {
			exp.Episode = ev.Episode
		}
		if ev.Kind == telemetry.EvRequeued {
			// The re-route penalty starts at the requeue itself: time from
			// here until the next enqueue is charged to the retry cause.
			rerouting = true
			rerouteComp = rerouteComponent(ev.Cause)
		}
		if i+1 < len(run) {
			next := run[i+1]
			gap := (next.At - ev.At).Nanoseconds()
			if gap < 0 {
				// Wall-clock skew between stamps (live mode); clamp rather
				// than breaking conservation — the negative slack lands in
				// the next gap automatically since E2E is end-start.
				gap = 0
			}
			comp := componentAfter(ev, rerouting, rerouteComp)
			if next.Kind == telemetry.EvRequeued {
				// Time leading into a requeue was wasted — queued on (or
				// executing on) a device whose work never completed — so it
				// is the re-route penalty of the strand cause, not honest
				// queue/exec time.
				comp = rerouteComponent(next.Cause)
			}
			exp.Components[comp] += gap
		}
		switch ev.Kind {
		case telemetry.EvRetried:
			exp.Retries++
		case telemetry.EvDone:
			exp.Outcome = OutcomeServed
			finished = true
		case telemetry.EvLate:
			exp.Outcome = OutcomeLate
			finished = true
		case telemetry.EvDropped:
			exp.Outcome = OutcomeDropped
			exp.Cause = ev.Cause.String()
			finished = true
		}
		if finished {
			exp.End = ev.At
			exp.PlanAtEnd = ev.Plan
			break
		}
	}
	if !finished {
		return exp, false
	}
	// Clamp-induced slack: the gaps can undershoot End-Start when a clamp
	// fired; fold any residue into the component that precedes the terminal
	// event so the sum stays exact. (With monotone stamps — the simulator
	// always, live mode in practice — the residue is zero.)
	exp.E2E = exp.End - exp.Start
	var sum int64
	for c := Component(0); c < NumComponents; c++ {
		sum += exp.Components[c]
	}
	if residue := exp.E2E.Nanoseconds() - sum; residue != 0 {
		exp.Components[CompAdmission] += residue
	}
	if exp.Outcome != OutcomeServed {
		exp.Blame, exp.Detail = blame(&exp, plans)
	}
	return exp, true
}

// componentAfter picks the component that owns the time following ev.
func componentAfter(ev telemetry.Event, rerouting bool, rerouteComp Component) Component {
	if rerouting {
		return rerouteComp
	}
	switch ev.Kind {
	case telemetry.EvArrival, telemetry.EvRoute, telemetry.EvRetried:
		return CompAdmission
	case telemetry.EvEnqueue:
		return CompQueueWait
	case telemetry.EvExecStart:
		return CompExec
	default:
		return CompAdmission
	}
}

// blame derives the root-cause label for a violated query: drop causes map
// directly; late (and expired) queries are blamed on the dominant component,
// joined against the plan/episode stamps to tell a stale plan from a burst
// and a degraded execution from a merely slow one.
func blame(exp *Explanation, plans []controlplane.PlanRecord) (Blame, string) {
	dom := exp.Dominant()
	if exp.Outcome == OutcomeDropped {
		switch exp.Cause {
		case telemetry.CauseShedAdmission.String():
			return BlameAdmissionShed, "dropped by deadline admission control"
		case telemetry.CauseNoRoute.String():
			if exp.Retries > 0 && isReroute(dom) {
				// The query only landed on an empty device because a failure
				// stranded it first; the fault is the root cause, not the
				// missing route.
				return BlameFailureReroute, fmt.Sprintf(
					"stranded %d time(s), then no admissible replica", exp.Retries)
			}
			if exp.Episode != 0 {
				return BlameBackpressureBan,
					fmt.Sprintf("no admissible replica during overload episode %d", exp.Episode)
			}
			return BlameNoRoute, "no serving device hosted the family"
		case telemetry.CauseRetryBudget.String():
			return BlameFailureReroute,
				fmt.Sprintf("retry budget exhausted after %d re-route(s)", exp.Retries)
		case telemetry.CausePolicyDrop.String():
			return BlamePolicyDrop, "shed by the batching policy"
		case telemetry.CauseDraining.String():
			return BlameDraining, "refused during graceful shutdown"
		}
		// CauseExpired (and unknown causes) fall through: the query died
		// waiting, so the dominant component says why.
	}
	if exp.E2E <= 0 {
		return BlameUnknown, "no attributable time in the surviving trace"
	}
	share := float64(exp.Components[dom]) / float64(exp.E2E.Nanoseconds()) * 100
	where := fmt.Sprintf("%s took %s of %s e2e (%.0f%%)",
		dom, time.Duration(exp.Components[dom]), exp.E2E, share)
	switch dom {
	case CompRerouteFailure, CompRerouteStale, CompRerouteMidflight:
		return BlameFailureReroute, where
	case CompExec:
		if exp.Episode != 0 {
			return BlameDegradedExec,
				fmt.Sprintf("%s under overload episode %d", where, exp.Episode)
		}
		return BlameSlowExec, where
	case CompQueueWait:
		if exp.PlanAtEnqueue > 0 && exp.PlanAtEnd > exp.PlanAtEnqueue {
			return BlameStalePlan, fmt.Sprintf("%s under plan %d, superseded by plan %d%s",
				where, exp.PlanAtEnqueue, exp.PlanAtEnd, planTrigger(plans, exp.PlanAtEnd))
		}
		if exp.Episode != 0 {
			return BlameOverloadQueueing,
				fmt.Sprintf("%s during overload episode %d", where, exp.Episode)
		}
		return BlameBurstQueueing, where
	default:
		return BlameAdmissionStall, where
	}
}

// isReroute reports whether c is one of the re-route penalty components.
func isReroute(c Component) bool {
	return c == CompRerouteFailure || c == CompRerouteStale || c == CompRerouteMidflight
}

// planTrigger names the trigger behind plan seq, when the audit history has
// it (e.g. " (trigger periodic)").
func planTrigger(plans []controlplane.PlanRecord, seq int32) string {
	for i := range plans {
		if int32(plans[i].Seq) == seq {
			return fmt.Sprintf(" (trigger %s)", plans[i].Trigger)
		}
	}
	return ""
}

// maxWindows bounds the window table. It is dense from time zero to the last
// lifecycle start, so without a bound one far-future stamp in a trace file
// sizes it instead of the trace.
const maxWindows = 1 << 16

// summarize fills the violated index and the family/window tables. A trace
// that would need more than maxWindows rows at the requested width gets the
// smallest multiple of it that fits (each row carries its Start).
func (r *Report) summarize(maxFamily int32, window time.Duration, names []string) {
	var lastStart time.Duration
	for i := range r.Queries {
		lastStart = max(lastStart, r.Queries[i].Start)
	}
	if n := lastStart / window; n >= maxWindows {
		window *= n/maxWindows + 1
	}
	fams := make([]FamilySummary, maxFamily+1)
	for f := range fams {
		fams[f].Family = int32(f)
		if f < len(names) {
			fams[f].Name = names[f]
		}
	}
	// Window index by lifecycle start; the slice grows to the last bucket.
	var wins []WindowSummary
	famBlames := make([]map[Blame]int, maxFamily+1)
	var winBlames []map[Blame]int
	for i := range r.Queries {
		q := &r.Queries[i]
		f := int(q.Family)
		if f < 0 || f >= len(fams) {
			continue
		}
		wi := int(q.Start / window)
		for wi >= len(wins) {
			wins = append(wins, WindowSummary{Start: time.Duration(len(wins)) * window})
			winBlames = append(winBlames, nil)
		}
		fams[f].Queries++
		wins[wi].Queries++
		if q.Outcome == OutcomeServed {
			continue
		}
		r.Violated = append(r.Violated, i)
		fams[f].Violated++
		wins[wi].Violated++
		if q.Outcome == OutcomeLate {
			fams[f].Late++
		} else {
			fams[f].Dropped++
		}
		for c := Component(0); c < NumComponents; c++ {
			fams[f].ViolatedComponents[c] += q.Components[c]
		}
		if famBlames[f] == nil {
			famBlames[f] = make(map[Blame]int)
		}
		famBlames[f][q.Blame]++
		if winBlames[wi] == nil {
			winBlames[wi] = make(map[Blame]int)
		}
		winBlames[wi][q.Blame]++
	}
	for f := range fams {
		fams[f].Blames = sortedBlames(famBlames[f])
	}
	for w := range wins {
		wins[w].Blames = sortedBlames(winBlames[w])
	}
	r.Families = fams
	r.Windows = wins
	// Worst-first: largest E2E, ties by query id ascending.
	sort.Slice(r.Violated, func(a, b int) bool {
		qa, qb := &r.Queries[r.Violated[a]], &r.Queries[r.Violated[b]]
		if qa.E2E != qb.E2E {
			return qa.E2E > qb.E2E
		}
		return qa.Query < qb.Query
	})
}

// allBlames is the closed label set in a fixed order, so tallies never
// depend on map iteration.
var allBlames = []Blame{
	BlameBurstQueueing, BlameStalePlan, BlameOverloadQueueing,
	BlameFailureReroute, BlameDegradedExec, BlameSlowExec,
	BlameAdmissionStall, BlameAdmissionShed,
	BlameBackpressureBan, BlameNoRoute, BlamePolicyDrop, BlameDraining,
	BlameUnknown,
}

// sortedBlames converts a tally map to a count-descending slice by scanning
// the closed label set (deterministic without sorting map keys).
func sortedBlames(m map[Blame]int) []BlameCount {
	if len(m) == 0 {
		return nil
	}
	out := make([]BlameCount, 0, len(m))
	for _, b := range allBlames {
		if n := m[b]; n > 0 {
			out = append(out, BlameCount{Blame: b, Count: n})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}
