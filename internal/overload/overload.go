// Package overload is the fast-path protection layer between the router and
// the control plane: per-device saturation signals, deterministic
// deadline-based admission control (shed-on-arrival instead of
// shed-after-timeout), bounded per-device mailboxes with high/low-water
// backpressure, and emergency accuracy degradation driven by the tsdb SLO
// burn monitor — the reactive counterpart of the controller's once-per-period
// accuracy scaling. Between MILP solves a demand spike can only queue up and
// blow the SLO; the guard degrades accuracy first and sheds last, within
// milliseconds of the signal.
//
// The guard is engine-agnostic: both the simulator (internal/core) and the
// live cluster (internal/serving) feed it timestamps, queue depths and burn
// transitions, and consult it on the routing path. All state transitions are
// pure functions of those inputs, so seeded simulator runs remain
// byte-deterministic (the package is in proteus-lint's determinism set). A
// nil *Guard turns every method into a cheap no-op, matching the telemetry
// package's "nil is off, and off is free" convention.
package overload

import (
	"sync"
	"time"

	"proteus/internal/telemetry"
)

// Config parameterizes a Guard. The zero value (Enabled false) disables the
// whole layer; engines then skip constructing a Guard at all.
type Config struct {
	// Enabled turns the overload guard on.
	Enabled bool
	// DisableDegradation turns off burn-triggered emergency accuracy
	// degradation, leaving admission control and backpressure only
	// ("shed-only" in the Overload experiment).
	DisableDegradation bool
	// HighWater is the per-device queue depth at which the router stops
	// routing to the device; LowWater re-admits it. Defaults 64 and
	// HighWater/2 (hysteresis: LowWater must be below HighWater).
	HighWater int
	LowWater  int
	// RestoreHold is how long a family's SLO burn must stay clear before an
	// emergency degradation is rolled back (the restore edge of the
	// hysteresis). Default 5s.
	RestoreHold time.Duration
	// EscalateAfter escalates an active degradation one tier further when
	// the burn persists this long past the previous step. Default 10s.
	EscalateAfter time.Duration
	// RedegradeCooldown is the minimum gap between a restore and the next
	// degradation of the same family (the degrade edge of the hysteresis,
	// so the guard cannot flap). Default 10s.
	RedegradeCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.HighWater <= 0 {
		c.HighWater = 64
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = c.HighWater / 2
	}
	if c.RestoreHold <= 0 {
		c.RestoreHold = 5 * time.Second
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 10 * time.Second
	}
	if c.RedegradeCooldown <= 0 {
		c.RedegradeCooldown = 10 * time.Second
	}
	return c
}

// DeviceProfile is what the hosting engine tells the guard about one device
// under the current plan: which family it serves, at what accuracy, and the
// profiled batch-latency envelope the admission bound interpolates.
type DeviceProfile struct {
	// Family is the served family index, or -1 for an idle device.
	Family int
	// Accuracy of the hosted variant (percent), used to order degradation
	// tiers.
	Accuracy float64
	// MaxBatch is the SLO- and memory-capped batch size.
	MaxBatch int
	// Lat1 and LatMax are the profiled batch-1 and batch-MaxBatch
	// latencies; batch latency is affine in size, so the two points define
	// the whole envelope.
	Lat1   time.Duration
	LatMax time.Duration
	// SLO is the family's latency SLO.
	SLO time.Duration
}

// ChangeKind labels a degradation-state transition.
type ChangeKind string

// The degradation-ladder transitions.
const (
	// Degrade opens an episode: the family's highest-accuracy tier is
	// masked from routing.
	Degrade ChangeKind = "degrade"
	// Escalate masks one more tier of an already-degraded family.
	Escalate ChangeKind = "escalate"
	// Restore closes the episode: the planned routing is reinstated.
	Restore ChangeKind = "restore"
)

// Change is one degradation-state transition, returned to the hosting engine
// so it can trace, count and audit the episode.
type Change struct {
	At     time.Duration `json:"at_ns"`
	Family int           `json:"family"`
	Kind   ChangeKind    `json:"kind"`
	// Level is the number of masked accuracy tiers after the transition
	// (0 after a restore).
	Level int `json:"level"`
	// Episode is the id of the episode this transition belongs to: opened
	// by the Degrade, carried by Escalates, and closed by the Restore.
	// Episode ids are guard-global, monotone from 1.
	Episode int `json:"episode,omitempty"`
	// Reason explains the transition for the decision audit.
	Reason string `json:"reason"`
}

// famState is one family's degradation ladder.
type famState struct {
	// tiers[i] lists the devices hosting the family's i-th accuracy tier,
	// highest accuracy first; level is how many leading tiers are masked.
	tiers   [][]int
	level   int
	burning bool
	// episode is the id of the active degradation episode (0 when level ==
	// 0). Stamped onto enqueue trace events so attribution can join a
	// query's exec latency to the degradation that shaped it.
	episode int
	// clearSince is when the burn last ended (valid when !burning);
	// lastStep is the time of the most recent degrade/escalate; lastRestore
	// the most recent restore.
	clearSince  time.Duration
	lastStep    time.Duration
	lastRestore time.Duration
}

// devState is one device's saturation bookkeeping.
type devState struct {
	prof      DeviceProfile
	depth     int
	pressured bool
	// marginal is the per-item latency increment (LatMax-Lat1)/(MaxBatch-1),
	// precomputed at SetPlan so Admit is division-free.
	marginal time.Duration
	// tier is the device's rank in its family's accuracy ladder (0 =
	// highest accuracy), or -1 when idle.
	tier int
}

// Guard is the overload-protection state machine. All methods are safe for
// concurrent use; the mutex is a leaf lock (no Guard method calls out while
// holding it), so callers may hold their own locks around any call.
type Guard struct {
	mu   sync.Mutex
	cfg  Config
	devs []devState
	fams []famState
	// epSeq numbers degradation episodes guard-globally, monotone from 1.
	epSeq int

	counters Counters
}

// New builds a guard for the given family and device counts. Returns nil
// when the config does not enable the guard, so call sites can keep the
// nil-is-off convention without their own flag checks.
func New(cfg Config, families, devices int) *Guard {
	if !cfg.Enabled {
		return nil
	}
	g := &Guard{cfg: cfg.withDefaults()}
	g.devs = make([]devState, devices)
	for d := range g.devs {
		g.devs[d].prof.Family = -1
		g.devs[d].tier = -1
	}
	g.fams = make([]famState, families)
	return g
}

// Counters is the pre-resolved overload counter bundle (see
// telemetry.NewOverloadCounters).
type Counters = telemetry.OverloadCounters

// Instrument resolves the guard's counters from a telemetry registry (a nil
// registry leaves them inert).
func (g *Guard) Instrument(r *telemetry.Registry) {
	if g == nil {
		return
	}
	// Resolve the counters before taking g.mu: NewOverloadCounters locks the
	// registry, and holding g.mu across it would nest the guard's lock over
	// telemetry's (flagged by the lockorder checker).
	counters := telemetry.NewOverloadCounters(r)
	g.mu.Lock()
	g.counters = counters
	g.mu.Unlock()
}

// SetPlan installs the per-device profiles of a newly applied plan and
// rebuilds each family's degradation tiers. Active episodes survive a plan
// change (the burn that caused them usually persists across plans); levels
// are clamped to the new ladder's height.
func (g *Guard) SetPlan(now time.Duration, profs []DeviceProfile) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.devs) < len(profs) {
		g.devs = append(g.devs, devState{prof: DeviceProfile{Family: -1}, tier: -1})
	}
	for d := range g.devs {
		p := DeviceProfile{Family: -1}
		if d < len(profs) {
			p = profs[d]
		}
		g.devs[d].prof = p
		g.devs[d].tier = -1
		g.devs[d].marginal = 0
		if p.MaxBatch > 1 {
			g.devs[d].marginal = (p.LatMax - p.Lat1) / time.Duration(p.MaxBatch-1)
		}
	}
	for f := range g.fams {
		fam := &g.fams[f]
		fam.tiers = fam.tiers[:0]
		// Group the family's devices into distinct accuracy tiers, highest
		// first. Device order inside a tier follows device index, so the
		// grouping is deterministic.
		type tier struct {
			acc  float64
			devs []int
		}
		var tiers []tier
		for d := range g.devs {
			p := g.devs[d].prof
			if p.Family != f || p.MaxBatch < 1 {
				continue
			}
			placed := false
			for i := range tiers {
				if tiers[i].acc == p.Accuracy {
					tiers[i].devs = append(tiers[i].devs, d)
					placed = true
					break
				}
			}
			if !placed {
				// Insert keeping accuracy descending.
				at := len(tiers)
				for i := range tiers {
					if p.Accuracy > tiers[i].acc {
						at = i
						break
					}
				}
				tiers = append(tiers, tier{})
				copy(tiers[at+1:], tiers[at:])
				tiers[at] = tier{acc: p.Accuracy, devs: []int{d}}
			}
		}
		for _, t := range tiers {
			fam.tiers = append(fam.tiers, t.devs)
		}
		// The ladder never masks the last tier: at least one accuracy level
		// keeps serving.
		if max := len(fam.tiers) - 1; fam.level > max {
			if max < 0 {
				max = 0
			}
			fam.level = max
			if fam.level == 0 {
				// The new ladder has nothing left to mask, so the episode
				// effectively ended with the plan change.
				fam.episode = 0
			}
		}
		for l, devs := range fam.tiers {
			for _, d := range devs {
				g.devs[d].tier = l
			}
		}
	}
}

// NoteDepth records device d's current queue depth and applies the
// high/low-water backpressure hysteresis.
func (g *Guard) NoteDepth(d, depth int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d < 0 || d >= len(g.devs) {
		return
	}
	dev := &g.devs[d]
	dev.depth = depth
	if !dev.pressured && depth >= g.cfg.HighWater {
		dev.pressured = true
		g.counters.Backpressured.Inc()
	} else if dev.pressured && depth <= g.cfg.LowWater {
		dev.pressured = false
	}
}

// queueBound returns a lower bound on the delay before a query arriving at
// device d (behind depth queued queries) completes: every earlier query
// processed in back-to-back maximal batches, the new query executing in the
// first batch with room. Ignoring the in-flight batch and batching waits
// keeps it a true lower bound — a rejection is provably correct. Caller
// holds g.mu.
func (g *Guard) queueBound(dev *devState) time.Duration {
	p := dev.prof
	n := dev.depth // queries ahead of the new arrival
	if p.MaxBatch < 1 {
		return 0
	}
	fullBatches := n / p.MaxBatch
	rem := n % p.MaxBatch // earlier queries sharing the new query's batch
	lb := time.Duration(fullBatches) * p.LatMax
	lb += p.Lat1 + time.Duration(rem)*dev.marginal
	return lb
}

// Admit reports whether a query with the given deadline can still possibly
// meet it if routed to device d now. Rejections are counted; a rejected
// query should be shed at the router (shed-on-arrival) instead of expiring
// in the queue.
func (g *Guard) Admit(now time.Duration, d int, deadline time.Duration) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d < 0 || d >= len(g.devs) {
		g.counters.Admitted.Inc()
		return true
	}
	if now+g.queueBound(&g.devs[d]) > deadline {
		g.counters.Rejected.Inc()
		return false
	}
	g.counters.Admitted.Inc()
	return true
}

// Banned reports whether the router should currently avoid device d for
// family f: the device is over its high-water mark, or an active
// degradation episode masks its accuracy tier. The router renormalizes the
// plan's weights over the remaining devices.
func (g *Guard) Banned(f, d int) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.banned(f, d)
}

// FillBanned sets ban[d] to Banned(f, d) for each d in devs, all under one
// hold of the guard's lock, so one routing decision reads one snapshot of
// the pressure and degradation state. Each d must index ban.
func (g *Guard) FillBanned(f int, devs []int, ban []bool) {
	if g == nil {
		for _, d := range devs {
			ban[d] = false
		}
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range devs {
		ban[d] = g.banned(f, d)
	}
}

// banned is the predicate of Banned and FillBanned. Caller holds g.mu.
func (g *Guard) banned(f, d int) bool {
	if d < 0 || d >= len(g.devs) {
		return false
	}
	dev := &g.devs[d]
	if dev.pressured {
		return true
	}
	if f >= 0 && f < len(g.fams) {
		fam := &g.fams[f]
		if fam.level > 0 && dev.tier >= 0 && dev.tier < fam.level && dev.prof.Family == f {
			return true
		}
	}
	return false
}

// OnBurn feeds an SLO burn-state transition of family f into the
// degradation ladder. A burn start degrades immediately — never waiting for
// the next control period — unless the redegrade cooldown since the last
// restore is still running (Tick retries then). A burn end only starts the
// restore-hold clock; Tick performs the restore once the burn stays clear.
// Safe to call from the tsdb recorder's burn callback (the guard's lock is
// a leaf).
func (g *Guard) OnBurn(now time.Duration, f int, start bool) []Change {
	if g == nil || f < 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f >= len(g.fams) {
		return nil
	}
	fam := &g.fams[f]
	fam.burning = start
	if !start {
		fam.clearSince = now
		return nil
	}
	return g.tryDegrade(now, f, "slo_burn")
}

// tryDegrade opens (or refuses to open) an episode for family f. Caller
// holds g.mu.
func (g *Guard) tryDegrade(now time.Duration, f int, reason string) []Change {
	fam := &g.fams[f]
	if g.cfg.DisableDegradation || fam.level > 0 || len(fam.tiers) < 2 {
		return nil
	}
	if fam.lastRestore > 0 && now-fam.lastRestore < g.cfg.RedegradeCooldown {
		return nil // Tick retries once the cooldown elapses
	}
	fam.level = 1
	fam.lastStep = now
	g.epSeq++
	fam.episode = g.epSeq
	g.counters.Degraded.Inc()
	return []Change{{At: now, Family: f, Kind: Degrade, Level: 1, Episode: fam.episode, Reason: reason}}
}

// Tick advances the time-based edges of the ladder: escalation of a
// persistent burn, degradation deferred by the redegrade cooldown, and
// restoration after the burn has stayed clear for the restore hold. Engines
// call it at a fixed cadence (the simulator on its virtual clock, the live
// server off a ticker), so the transitions are deterministic in simulation.
func (g *Guard) Tick(now time.Duration) []Change {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var changes []Change
	for f := range g.fams {
		fam := &g.fams[f]
		switch {
		case fam.burning && fam.level == 0:
			// A deferred degrade (redegrade cooldown was running when the
			// burn started).
			changes = append(changes, g.tryDegrade(now, f, "slo_burn_pending")...)
		case fam.burning && fam.level > 0:
			if fam.level < len(fam.tiers)-1 && now-fam.lastStep >= g.cfg.EscalateAfter {
				fam.level++
				fam.lastStep = now
				g.counters.Escalated.Inc()
				changes = append(changes, Change{
					At: now, Family: f, Kind: Escalate, Level: fam.level,
					Episode: fam.episode, Reason: "burn_persisting",
				})
			}
		case !fam.burning && fam.level > 0:
			if now-fam.clearSince >= g.cfg.RestoreHold {
				closed := fam.episode
				fam.level = 0
				fam.episode = 0
				fam.lastRestore = now
				g.counters.Restored.Inc()
				changes = append(changes, Change{
					At: now, Family: f, Kind: Restore, Level: 0,
					Episode: closed, Reason: "burn_cleared",
				})
			}
		}
	}
	return changes
}

// DeviceSignal returns device d's saturation signal: the estimated queueing
// delay for a new arrival as a fraction of the family SLO in thousandths
// (capped at 10x the SLO), and whether backpressure currently excludes the
// device from routing.
func (g *Guard) DeviceSignal(d int) (satMilli int, pressured bool) {
	if g == nil {
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d < 0 || d >= len(g.devs) {
		return 0, false
	}
	dev := &g.devs[d]
	if dev.prof.SLO <= 0 || dev.prof.MaxBatch < 1 {
		return 0, dev.pressured
	}
	sat := int(g.queueBound(dev) * 1000 / dev.prof.SLO)
	if sat > 10000 {
		sat = 10000
	}
	return sat, dev.pressured
}

// DeviceOverload is one device's row in the overload state report.
type DeviceOverload struct {
	Device int `json:"device"`
	// SatMilli is the estimated queueing delay for a new arrival in
	// thousandths of the served family's SLO (0 for idle devices).
	SatMilli int `json:"sat_milli"`
	// QueueDepth is the last reported mailbox depth.
	QueueDepth int `json:"queue_depth"`
	// Pressured marks devices excluded from routing by backpressure.
	Pressured bool `json:"pressured"`
}

// Episode is one family's active degradation episode in the state report.
type Episode struct {
	Family int `json:"family"`
	// ID is the guard-global episode id (matches the Episode field of the
	// Change that opened it and of enqueue trace events recorded under it).
	ID int `json:"id"`
	// Level is the number of masked accuracy tiers.
	Level int `json:"level"`
	// Since is the time of the episode's most recent degrade/escalate step.
	Since time.Duration `json:"since_ns"`
	// Reason is why the episode is active ("slo_burn").
	Reason string `json:"reason"`
}

// State is the guard's externally visible snapshot, served by /healthz so
// probes can distinguish "degraded by plan" from "degraded by overload".
type State struct {
	Enabled bool             `json:"enabled"`
	Devices []DeviceOverload `json:"devices"`
	// Episodes lists families under active emergency degradation (empty
	// when routing follows the plan).
	Episodes []Episode `json:"episodes,omitempty"`
}

// State snapshots the guard (zero-value State on a nil guard).
func (g *Guard) State() State {
	if g == nil {
		return State{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := State{Enabled: true}
	for d := range g.devs {
		dev := &g.devs[d]
		sat := 0
		if dev.prof.SLO > 0 && dev.prof.MaxBatch >= 1 {
			sat = int(g.queueBound(dev) * 1000 / dev.prof.SLO)
			if sat > 10000 {
				sat = 10000
			}
		}
		st.Devices = append(st.Devices, DeviceOverload{
			Device:     d,
			SatMilli:   sat,
			QueueDepth: dev.depth,
			Pressured:  dev.pressured,
		})
	}
	for f := range g.fams {
		fam := &g.fams[f]
		if fam.level > 0 {
			st.Episodes = append(st.Episodes, Episode{
				Family: f,
				ID:     fam.episode,
				Level:  fam.level,
				Since:  fam.lastStep,
				Reason: "slo_burn",
			})
		}
	}
	return st
}

// EpisodeID returns the id of family f's active degradation episode (0 when
// routing follows the plan). Engines stamp it onto enqueue trace events.
func (g *Guard) EpisodeID(f int) int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f < 0 || f >= len(g.fams) {
		return 0
	}
	return g.fams[f].episode
}
