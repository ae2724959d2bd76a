package dataplane

import (
	"fmt"
	"math"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/controlplane"
)

// TestReplanPolicy runs the re-plan policy both engines schedule —
// Controller.Decide and Retry for when, Plane.Replan, Solve and SetPlan for
// what — through trigger sequences on a plane with a 10 s cooldown, a 2 s
// control period (so a 2 s demand window) and a 1.05 headroom, whose initial plan is for 200 QPS of
// family 0. Each step names what the policy made of it: "hold", "retry@T"
// (the one pending retry armed for T), "keep" (a periodic tick kept the
// plan), or "plan:L" for a plan labelled L, "/handled" when installing it
// closed the pending failures. A "failure" step also takes the next device
// down and a "recovery" step brings the newest failed one back; "retry" is
// the pending retry firing.
func TestReplanPolicy(t *testing.T) {
	const s = time.Second
	type step struct {
		at       time.Duration
		ev, want string
	}
	cases := []struct {
		name   string
		static bool
		// load[i] arrivals of family 0, spread evenly over second i.
		load  []int
		steps []step
		// demand is family 0's demand in the newest plan record (0: not
		// checked); ttr the collector's mean time to recover at the end.
		demand float64
		ttr    time.Duration
	}{
		{name: "burst at the cooldown boundary", steps: []step{
			{10*s - 1, "burst", "hold"}, {10 * s, "burst", "plan:burst"}, {19 * s, "burst", "hold"}}},
		{name: "a burst solves for the last second's rate", load: []int{10: 100, 11: 400},
			steps: []step{{12 * s, "burst", "plan:burst"}}, demand: 400 * 1.05},
		{name: "a periodic tick solves for the windowed estimate", load: []int{10: 100, 11: 400},
			steps: []step{{12 * s, "periodic", "plan:periodic"}}, demand: 250 * 1.05},
		{name: "failure outside the cooldown re-plans now", steps: []step{
			{12 * s, "failure", "plan:failure/handled"}}},
		{name: "failure at the cooldown boundary re-plans now", steps: []step{
			{10 * s, "failure", "plan:failure/handled"}}},
		{name: "failure inside the cooldown arms the retry", steps: []step{
			{2 * s, "failure", "retry@10s"}, {10 * s, "retry", "plan:failure/handled"}},
			ttr: 8 * s},
		{name: "two failures ride one retry", steps: []step{
			{2 * s, "failure", "retry@10s"}, {3 * s, "failure", "hold"}, {10 * s, "retry", "plan:failure/handled"}},
			ttr: 7500 * time.Millisecond},
		{name: "failure then recovery ride one retry", steps: []step{
			{2 * s, "failure", "retry@10s"}, {5 * s, "recovery", "hold"}, {10 * s, "retry", "plan:recovery/handled"}},
			ttr: 8 * s},
		{name: "a recovery alone does not close failures", steps: []step{
			{2 * s, "failure", "retry@10s"}, {10 * s, "retry", "plan:failure/handled"},
			{12 * s, "recovery", "retry@20s"}, {20 * s, "retry", "plan:recovery"}},
			ttr: 8 * s},
		{name: "the retry does not ask the cooldown again", steps: []step{
			{2 * s, "failure", "retry@10s"}, {5 * s, "periodic", "plan:periodic"},
			{10 * s, "retry", "plan:failure/handled"}, {19 * s, "burst", "hold"}, {20 * s, "burst", "plan:burst"}},
			ttr: 8 * s},
		{name: "a fired retry leaves room for a new one", steps: []step{
			{2 * s, "failure", "retry@10s"}, {10 * s, "retry", "plan:failure/handled"},
			{12 * s, "failure", "retry@20s"}, {20 * s, "retry", "plan:failure/handled"}},
			ttr: 8 * s},
		{name: "229 QPS against a plan for 200 re-plans", load: []int{229, 229},
			steps: []step{{2 * s, "periodic", "plan:periodic"}}, demand: 229 * 1.05},
		{name: "221 QPS is the threshold", load: []int{221, 221},
			steps: []step{{2 * s, "periodic", "plan:periodic"}}},
		{name: "220 QPS keeps the plan", load: []int{220, 220},
			steps: []step{{2 * s, "periodic", "keep"}}},
		{name: "provision re-plans inside the cooldown", steps: []step{
			{s, "provision", "plan:provision"}}},
		{name: "a static allocator never re-plans", static: true, steps: []step{
			{2 * s, "failure", "hold"}, {12 * s, "periodic", "hold"}, {12 * s, "burst", "hold"},
			{13 * s, "recovery", "hold"}, {15 * s, "provision", "hold"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := harness(t, batching.NewAccScale(), func(c *Config) {
				c.Headroom = 1.05
				c.ControlPeriod = 2 * s
				if tc.static {
					c.Allocator = allocator.NewClipperHA(&allocator.MILPOptions{MaxNodes: 200})
				}
			})
			ctl := p.Controller
			initial, err := p.InitialPlan([]float64{200})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SetPlan(0, initial); err != nil {
				t.Fatal(err)
			}
			if h := ctl.History(); len(h) != 1 || h[0].Trigger != "initial" || h[0].Demand[0] != 210 || h[0].Demand[1] != 0 {
				t.Fatalf("initial plan record %+v, want demand [210 0]", h)
			}
			for i, n := range tc.load {
				for k := 0; k < n; k++ {
					p.Stats.Observe(time.Duration(i)*s+time.Duration(k)*s/time.Duration(n), 0)
				}
			}
			failed := 0
			for _, st := range tc.steps {
				switch st.ev {
				case "failure":
					p.SetHealth(st.at, failed, false)
					failed++
				case "recovery":
					failed--
					p.SetHealth(st.at, failed, true)
				}
				act, at := controlplane.ReplanNow, time.Duration(0)
				trigger, failure := st.ev, st.ev == "failure"
				if st.ev == "retry" {
					trigger, failure = ctl.Retry()
				} else {
					act, at = ctl.Decide(st.at, st.ev)
				}
				got := "hold"
				switch act {
				case controlplane.ArmRetry:
					got = fmt.Sprintf("retry@%v", at)
				case controlplane.ReplanNow:
					got = replanStep(t, p, st.at, trigger, failure)
				}
				if got != st.want {
					t.Errorf("%v %s: %s, want %s", st.at, st.ev, got, st.want)
				}
			}
			h := ctl.History()
			if d := h[len(h)-1].Demand[0]; tc.demand != 0 && math.Abs(d-tc.demand) > 1e-9 {
				t.Errorf("newest plan solved for %.2f QPS, want %.2f", d, tc.demand)
			}
			if got := p.Collector.Summarize(-1).MeanTimeToRecover; got != tc.ttr {
				t.Errorf("mean time to recover %v, want %v", got, tc.ttr)
			}
		})
	}
}

// replanStep runs one re-plan at now to its installed plan and says what
// came of it. Every solve sees the plane's down mask.
func replanStep(t *testing.T, p *Plane, now time.Duration, trigger string, failure bool) string {
	t.Helper()
	r := p.Replan(now, trigger, failure)
	if err := p.Solve(&r); err != nil {
		t.Fatal(err)
	}
	if r.Plan.Allocation == nil {
		return "keep"
	}
	for d, down := range p.Down() {
		if p.Controller.Cluster().Healthy(d) == down || down && r.Plan.Hosted[d] != nil {
			t.Fatalf("device %d (down %v) planned over as healthy %v, hosting %v",
				d, down, p.Controller.Cluster().Healthy(d), r.Plan.Hosted[d])
		}
	}
	if err := p.SetPlan(now, r); err != nil {
		t.Fatal(err)
	}
	got := "plan:" + p.Controller.History()[len(p.Controller.History())-1].Trigger
	if r.Failure {
		got += "/handled"
	}
	return got
}

// TestSolveTakesDownMaskOnGrownFleet: a solve after the fleet grew (the
// simulator's elastic provisioning) plans over every device, the new one
// included, minus the ones that are down.
func TestSolveTakesDownMaskOnGrownFleet(t *testing.T) {
	p, _ := harness(t, batching.NewAccScale(), nil)
	ctl := p.Controller
	grown := ctl.Cluster().WithExtra(cluster.V100)
	ctl.SetCluster(grown)
	p.AddDevice(grown.Device(grown.Size() - 1))
	p.SetHealth(time.Second, 1, false)
	r := p.Replan(2*time.Second, "provision", false)
	if err := p.Solve(&r); err != nil {
		t.Fatal(err)
	}
	cl := ctl.Cluster()
	if cl.Size() != 5 || cl.Healthy(1) || !cl.Healthy(4) || len(cl.HealthyDevices()) != 4 {
		t.Fatalf("solved over %d devices, healthy %d, device 1 %v, device 4 %v",
			cl.Size(), len(cl.HealthyDevices()), cl.Healthy(1), cl.Healthy(4))
	}
	if len(r.Plan.Hosted) != 5 || r.Plan.Hosted[1] != nil {
		t.Fatalf("plan hosts %d devices, %v on the failed one", len(r.Plan.Hosted), r.Plan.Hosted[1])
	}
}
