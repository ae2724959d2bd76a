package overload

import (
	"math/rand"
	"testing"
	"time"

	"proteus/internal/telemetry"
)

const (
	ms  = time.Millisecond
	sec = time.Second
)

// twoTierPlan hosts family 0 on two accuracy tiers (devices 0,1 high; device
// 2 low) and family 1 on a single tier (device 3). Device 4 is idle.
func twoTierPlan() []DeviceProfile {
	return []DeviceProfile{
		{Family: 0, Accuracy: 80, MaxBatch: 8, Lat1: 10 * ms, LatMax: 45 * ms, SLO: 100 * ms},
		{Family: 0, Accuracy: 80, MaxBatch: 8, Lat1: 10 * ms, LatMax: 45 * ms, SLO: 100 * ms},
		{Family: 0, Accuracy: 65, MaxBatch: 16, Lat1: 4 * ms, LatMax: 34 * ms, SLO: 100 * ms},
		{Family: 1, Accuracy: 90, MaxBatch: 4, Lat1: 20 * ms, LatMax: 50 * ms, SLO: 200 * ms},
		{Family: -1},
	}
}

func newTestGuard(t *testing.T, cfg Config) *Guard {
	t.Helper()
	cfg.Enabled = true
	g := New(cfg, 2, 5)
	if g == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	g.SetPlan(0, twoTierPlan())
	return g
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if g := New(Config{}, 2, 5); g != nil {
		t.Fatal("New should return nil when Enabled is false")
	}
}

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	g.Instrument(telemetry.NewRegistry())
	g.SetPlan(0, twoTierPlan())
	g.NoteDepth(0, 100)
	if !g.Admit(0, 0, 50*ms) {
		t.Error("nil guard must admit everything")
	}
	if g.Banned(0, 0) {
		t.Error("nil guard must ban nothing")
	}
	ban := []bool{true, true}
	if g.FillBanned(0, []int{1}, ban); !ban[0] || ban[1] {
		t.Errorf("nil guard FillBanned left %v, want [true false]", ban)
	}
	if ch := g.OnBurn(0, 0, true); ch != nil {
		t.Errorf("nil guard OnBurn returned %v", ch)
	}
	if ch := g.Tick(sec); ch != nil {
		t.Errorf("nil guard Tick returned %v", ch)
	}
	if sat, p := g.DeviceSignal(0); sat != 0 || p {
		t.Errorf("nil guard DeviceSignal = %d,%v", sat, p)
	}
	if st := g.State(); st.Enabled {
		t.Error("nil guard State reports Enabled")
	}
	if level(g, 0) != 0 {
		t.Error("nil guard level non-zero")
	}
}

// level returns family f's degradation level as Guard.State reports it (0
// when routing follows the plan).
func level(g *Guard, f int) int {
	for _, ep := range g.State().Episodes {
		if ep.Family == f {
			return ep.Level
		}
	}
	return 0
}

// TestNilGuardAllocatesNothing holds "nil is off, and off is free" as a
// property of the code rather than of the host: the admission check, the
// router's exclusion predicate, the depth note and the saturation signal
// return from a nil guard without allocating.
func TestNilGuardAllocatesNothing(t *testing.T) {
	var g *Guard
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Admit", func() {
			if !g.Admit(0, 0, 50*ms) {
				t.Error("nil guard must admit everything")
			}
		}},
		{"Banned", func() {
			if g.Banned(0, 0) {
				t.Error("nil guard must ban nothing")
			}
		}},
		{"NoteDepth", func() { g.NoteDepth(0, 100) }},
		{"DeviceSignal", func() { _, _ = g.DeviceSignal(0) }},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n != 0 {
			t.Errorf("%s on a nil guard allocates %v per call, want 0", tc.name, n)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g := New(Config{Enabled: true}, 1, 1)
	cfg := g.cfg
	if cfg.HighWater != 64 || cfg.LowWater != 32 {
		t.Errorf("water marks = %d/%d, want 64/32", cfg.HighWater, cfg.LowWater)
	}
	if cfg.RestoreHold != 5*sec || cfg.EscalateAfter != 10*sec || cfg.RedegradeCooldown != 10*sec {
		t.Errorf("hysteresis defaults = %v/%v/%v", cfg.RestoreHold, cfg.EscalateAfter, cfg.RedegradeCooldown)
	}
	// LowWater >= HighWater is invalid and snaps back to half.
	g = New(Config{Enabled: true, HighWater: 10, LowWater: 12}, 1, 1)
	if cfg := g.cfg; cfg.LowWater != 5 {
		t.Errorf("invalid LowWater resolved to %d, want 5", cfg.LowWater)
	}
}

func TestBackpressureHysteresis(t *testing.T) {
	g := newTestGuard(t, Config{HighWater: 10, LowWater: 4})
	reg := telemetry.NewRegistry()
	g.Instrument(reg)
	if g.Banned(0, 0) {
		t.Fatal("fresh device banned")
	}
	g.NoteDepth(0, 9)
	if g.Banned(0, 0) {
		t.Fatal("banned below high water")
	}
	g.NoteDepth(0, 10)
	if !g.Banned(0, 0) {
		t.Fatal("not banned at high water")
	}
	// Hysteresis: stays pressured between low and high water.
	g.NoteDepth(0, 7)
	if !g.Banned(0, 0) {
		t.Fatal("released above low water")
	}
	g.NoteDepth(0, 4)
	if g.Banned(0, 0) {
		t.Fatal("still banned at low water")
	}
	// Only the engagement edge counts.
	g.NoteDepth(0, 10)
	if got := reg.Counter("overload_backpressure_total").Value(); got != 2 {
		t.Errorf("backpressure count = %d, want 2", got)
	}
}

func TestAdmissionBound(t *testing.T) {
	// Device 0: MaxBatch 8, Lat1 10ms, LatMax 45ms → marginal 5ms.
	g := newTestGuard(t, Config{HighWater: 1 << 20})
	cases := []struct {
		depth    int
		deadline time.Duration
		admit    bool
	}{
		// Empty queue: bound is Lat1 = 10ms.
		{0, 10 * ms, true},
		{0, 9 * ms, false},
		// 3 ahead share the batch: 10 + 3*5 = 25ms.
		{3, 25 * ms, true},
		{3, 24 * ms, false},
		// 8 ahead: one full batch (45ms) then the query alone: 55ms.
		{8, 55 * ms, true},
		{8, 54 * ms, false},
		// 19 ahead: 2*45 + 10 + 3*5 = 115ms.
		{19, 115 * ms, true},
		{19, 114 * ms, false},
	}
	for _, tc := range cases {
		g.NoteDepth(0, tc.depth)
		if got := g.Admit(0, 0, tc.deadline); got != tc.admit {
			t.Errorf("depth %d deadline %v: admit = %v, want %v", tc.depth, tc.deadline, got, tc.admit)
		}
	}
	// Admission is relative to now.
	g.NoteDepth(0, 0)
	if g.Admit(100*ms, 0, 105*ms) {
		t.Error("admitted a query whose remaining slack is below Lat1")
	}
}

func TestDegradationLadder(t *testing.T) {
	g := newTestGuard(t, Config{RestoreHold: 5 * sec, EscalateAfter: 10 * sec, RedegradeCooldown: 10 * sec})
	reg := telemetry.NewRegistry()
	g.Instrument(reg)

	// Burn start degrades immediately, masking the high-accuracy tier.
	ch := g.OnBurn(1*sec, 0, true)
	if len(ch) != 1 || ch[0].Kind != Degrade || ch[0].Level != 1 || ch[0].Family != 0 {
		t.Fatalf("burn start changes = %+v", ch)
	}
	if !g.Banned(0, 0) || !g.Banned(0, 1) {
		t.Fatal("tier-0 devices not masked at level 1")
	}
	if g.Banned(0, 2) {
		t.Fatal("low tier masked at level 1")
	}
	if level(g, 0) != 1 {
		t.Fatalf("level = %d, want 1", level(g, 0))
	}

	// The two-tier ladder cannot escalate past the last tier.
	if ch := g.Tick(30 * sec); len(ch) != 0 {
		t.Fatalf("escalated past the last tier: %+v", ch)
	}

	// Burn end starts the restore hold; restore only after it elapses.
	g.OnBurn(31*sec, 0, false)
	if ch := g.Tick(35 * sec); len(ch) != 0 {
		t.Fatalf("restored before the hold elapsed: %+v", ch)
	}
	ch = g.Tick(36 * sec)
	if len(ch) != 1 || ch[0].Kind != Restore || ch[0].Level != 0 {
		t.Fatalf("restore changes = %+v", ch)
	}
	if g.Banned(0, 0) || level(g, 0) != 0 {
		t.Fatal("mask not lifted after restore")
	}

	// Redegrade cooldown: a burn right after the restore is deferred...
	if ch := g.OnBurn(40*sec, 0, true); len(ch) != 0 {
		t.Fatalf("degraded inside the redegrade cooldown: %+v", ch)
	}
	if ch := g.Tick(41 * sec); len(ch) != 0 {
		t.Fatalf("Tick degraded inside the cooldown: %+v", ch)
	}
	// ...and picked up by Tick once the cooldown elapses.
	ch = g.Tick(46 * sec)
	if len(ch) != 1 || ch[0].Kind != Degrade || ch[0].Reason != "slo_burn_pending" {
		t.Fatalf("deferred degrade changes = %+v", ch)
	}

	if got := reg.Counter("overload_degraded_total").Value(); got != 2 {
		t.Errorf("degraded count = %d, want 2", got)
	}
	if got := reg.Counter("overload_restored_total").Value(); got != 1 {
		t.Errorf("restored count = %d, want 1", got)
	}
}

func TestEscalation(t *testing.T) {
	g := New(Config{Enabled: true, EscalateAfter: 10 * sec}, 1, 3)
	// Three distinct accuracy tiers.
	g.SetPlan(0, []DeviceProfile{
		{Family: 0, Accuracy: 90, MaxBatch: 4, Lat1: 10 * ms, LatMax: 40 * ms, SLO: 100 * ms},
		{Family: 0, Accuracy: 80, MaxBatch: 8, Lat1: 8 * ms, LatMax: 32 * ms, SLO: 100 * ms},
		{Family: 0, Accuracy: 70, MaxBatch: 16, Lat1: 4 * ms, LatMax: 24 * ms, SLO: 100 * ms},
	})
	g.OnBurn(0, 0, true)
	if level(g, 0) != 1 {
		t.Fatalf("level = %d after burn, want 1", level(g, 0))
	}
	if ch := g.Tick(9 * sec); len(ch) != 0 {
		t.Fatalf("escalated before EscalateAfter: %+v", ch)
	}
	ch := g.Tick(10 * sec)
	if len(ch) != 1 || ch[0].Kind != Escalate || ch[0].Level != 2 {
		t.Fatalf("escalate changes = %+v", ch)
	}
	if !g.Banned(0, 0) || !g.Banned(0, 1) || g.Banned(0, 2) {
		t.Fatal("level-2 mask wrong")
	}
	// Never masks the last tier.
	if ch := g.Tick(60 * sec); len(ch) != 0 {
		t.Fatalf("masked the last tier: %+v", ch)
	}
}

// TestFillBannedMatchesBanned drives a guard through seeded sequences of
// plans, queue depths, burns and ticks, and after every step requires
// FillBanned to agree with Banned on every (family, device) pair, families
// and devices out of the guard's range among them.
func TestFillBannedMatchesBanned(t *testing.T) {
	const fams, devs = 3, 6
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		g := New(Config{Enabled: true, HighWater: 8, LowWater: 4, RestoreHold: 2 * sec,
			EscalateAfter: 3 * sec, RedegradeCooldown: 2 * sec}, fams, devs)
		now := time.Duration(0)
		for step := 0; step < 200; step++ {
			now += time.Duration(rng.Intn(1500)) * ms
			switch rng.Intn(4) {
			case 0:
				profs := make([]DeviceProfile, 1+rng.Intn(devs+2)) // may grow the fleet
				for d := range profs {
					profs[d] = DeviceProfile{Family: rng.Intn(fams+1) - 1, Accuracy: float64(60 + 10*rng.Intn(4)),
						MaxBatch: rng.Intn(9), Lat1: 5 * ms, LatMax: 40 * ms, SLO: 100 * ms}
				}
				g.SetPlan(now, profs)
			case 1:
				g.NoteDepth(rng.Intn(devs+3)-1, rng.Intn(16))
			case 2:
				g.OnBurn(now, rng.Intn(fams+2)-1, rng.Intn(2) == 0)
			default:
				g.Tick(now)
			}
			cands := rng.Perm(devs + 4) // the guard's devices and some beyond
			ban := make([]bool, len(cands))
			for f := -1; f <= fams; f++ {
				for i := range ban {
					ban[i] = rng.Intn(2) == 0 // stale scratch must be overwritten
				}
				g.FillBanned(f, cands, ban)
				for d := range ban {
					if want := g.Banned(f, d); ban[d] != want {
						t.Fatalf("trial %d step %d: FillBanned(%d) set device %d to %v, Banned says %v",
							trial, step, f, d, ban[d], want)
					}
				}
			}
		}
	}
}

func TestSingleTierFamilyNeverDegrades(t *testing.T) {
	g := newTestGuard(t, Config{})
	if ch := g.OnBurn(0, 1, true); len(ch) != 0 {
		t.Fatalf("single-tier family degraded: %+v", ch)
	}
	if g.Banned(1, 3) {
		t.Fatal("single-tier family's device banned")
	}
}

func TestDegradationDisabled(t *testing.T) {
	g := newTestGuard(t, Config{DisableDegradation: true})
	if ch := g.OnBurn(0, 0, true); len(ch) != 0 {
		t.Fatalf("DisableDegradation still degraded: %+v", ch)
	}
	if ch := g.Tick(30 * sec); len(ch) != 0 {
		t.Fatalf("DisableDegradation Tick degraded: %+v", ch)
	}
}

func TestSetPlanPreservesEpisode(t *testing.T) {
	g := newTestGuard(t, Config{})
	g.OnBurn(0, 0, true)
	if level(g, 0) != 1 {
		t.Fatal("setup: no episode")
	}
	// Re-applying a plan keeps the episode (the burn usually persists).
	g.SetPlan(10*sec, twoTierPlan())
	if level(g, 0) != 1 {
		t.Fatal("plan change dropped the episode")
	}
	// A plan that collapses the family to one tier clamps the level to 0.
	one := twoTierPlan()
	one[2].Family = -1
	g.SetPlan(20*sec, one)
	if level(g, 0) != 0 {
		t.Fatalf("level not clamped to the new ladder: %d", level(g, 0))
	}
}

func TestDeviceSignalAndState(t *testing.T) {
	g := newTestGuard(t, Config{HighWater: 16, LowWater: 8})
	// Depth 8 on device 0: bound = 45ms + 10ms = wait, 8/8=1 full batch →
	// 45 + 10 = 55ms over a 100ms SLO → 550 milli.
	g.NoteDepth(0, 8)
	sat, pressured := g.DeviceSignal(0)
	if sat != 550 || pressured {
		t.Errorf("DeviceSignal = %d,%v, want 550,false", sat, pressured)
	}
	// Saturation caps at 10000 (10x the SLO).
	g.NoteDepth(0, 10000)
	if sat, _ := g.DeviceSignal(0); sat != 10000 {
		t.Errorf("saturation cap = %d, want 10000", sat)
	}
	// Idle device signals zero.
	if sat, _ := g.DeviceSignal(4); sat != 0 {
		t.Errorf("idle device sat = %d", sat)
	}

	g.OnBurn(1*sec, 0, true)
	st := g.State()
	if !st.Enabled || len(st.Devices) != 5 {
		t.Fatalf("State = %+v", st)
	}
	if !st.Devices[0].Pressured || st.Devices[0].QueueDepth != 10000 {
		t.Errorf("device 0 state = %+v", st.Devices[0])
	}
	if len(st.Episodes) != 1 || st.Episodes[0].Family != 0 || st.Episodes[0].Level != 1 ||
		st.Episodes[0].Since != 1*sec || st.Episodes[0].Reason != "slo_burn" {
		t.Errorf("episodes = %+v", st.Episodes)
	}
}

func TestAdmissionCounters(t *testing.T) {
	g := newTestGuard(t, Config{HighWater: 1 << 20})
	reg := telemetry.NewRegistry()
	g.Instrument(reg)
	g.NoteDepth(0, 0)
	g.Admit(0, 0, 100*ms) // admitted
	g.Admit(0, 0, 1*ms)   // rejected
	if got := reg.Counter("overload_admitted_total").Value(); got != 1 {
		t.Errorf("admitted = %d, want 1", got)
	}
	if got := reg.Counter("overload_rejected_total").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}
