package serving

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/attrib"
	"proteus/internal/batching"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
)

// checkBooks asserts the conservation invariant on a drained server: per
// family, every arrival ended as exactly one of served, late or dropped, and
// per device every accepted query left. The check reads every device, so it
// holds every worker's lock too.
func checkBooks(t *testing.T, s *Server) {
	t.Helper()
	for _, w := range s.workers {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.plane.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// expiredBlames returns the attribution labels of the trace's queries that
// were dropped with cause expired, and how many there were.
func expiredBlames(events []telemetry.Event, names []string) (map[attrib.Blame]bool, int) {
	rep := attrib.Analyze(attrib.Input{Events: events, FamilyNames: names})
	blames, n := map[attrib.Blame]bool{}, 0
	for _, q := range rep.Queries {
		if q.Outcome == attrib.OutcomeDropped && q.Cause == telemetry.CauseExpired.String() {
			blames[q.Blame] = true
			n++
		}
	}
	return blames, n
}

// TestExpiredDropsInBothModes overloads one family far past its capacity, so
// most of the burst is still queued when its deadline passes. Whatever the
// batching policy, the worker must drop those queries as expired before the
// policy runs — not execute them late (static-N used to) and not relabel the
// drop as the policy's (AccScale used to) — and proteus-explain's attribution
// must blame the drop on the same label in live mode and in the simulator.
func TestExpiredDropsInBothModes(t *testing.T) {
	const burst = 160
	for _, policy := range []string{"static-4", "accscale"} {
		t.Run(policy, func(t *testing.T) {
			factory, err := batching.ByName(policy)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(t)
			cfg.Batching = factory
			cfg.InitialDemand = []float64{5, 0}
			cfg.ControlPeriod = time.Minute // the plan must stay underwater
			cfg.Tracer = telemetry.NewTracer(1 << 14)
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var wg sync.WaitGroup
			outcomes := make([]Outcome, burst)
			for i := range outcomes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outcomes[i] = s.Infer("efficientnet").Outcome
				}()
			}
			wg.Wait()
			var late, dropped int
			for _, o := range outcomes {
				switch o {
				case OutcomeLate:
					late++
				case OutcomeDropped:
					dropped++
				}
			}
			names := models.FamilyNames(cfg.Families)
			liveBlames, liveExpired := expiredBlames(cfg.Tracer.Events(), names)
			t.Logf("live: %d late, %d dropped, %d expired drops traced", late, dropped, liveExpired)
			if liveExpired == 0 || liveExpired != dropped {
				t.Fatalf("%d dropped responses, %d expired drops in the trace (late=%d): the overflow must be dropped as expired",
					dropped, liveExpired, late)
			}
			if late > liveExpired {
				t.Fatalf("%d late vs %d expired: doomed queries are still being executed", late, liveExpired)
			}
			if !s.Drain(5 * time.Second) {
				t.Fatal("drain timed out")
			}
			checkBooks(t, s)

			// The same burst through the simulator.
			simTracer := telemetry.NewTracer(1 << 14)
			sys, err := core.NewSystem(core.Config{
				Cluster:   cfg.Cluster,
				Families:  cfg.Families,
				Allocator: cfg.Allocator,
				Batching:  factory,
				Tracer:    simTracer,
				Seed:      cfg.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			arrivals := make([]trace.Arrival, burst)
			for i := range arrivals {
				arrivals[i] = trace.Arrival{Time: time.Millisecond}
			}
			if _, err := sys.RunArrivals(arrivals, 5*time.Second, cfg.InitialDemand); err != nil {
				t.Fatal(err)
			}
			simBlames, simExpired := expiredBlames(simTracer.Events(), names)
			if simExpired == 0 {
				t.Fatal("the simulator dropped nothing as expired on the same burst")
			}
			if len(liveBlames) != 1 || len(simBlames) != 1 || !liveBlames[attrib.BlameBurstQueueing] || !simBlames[attrib.BlameBurstQueueing] {
				t.Fatalf("expired drops blamed on %v live, %v simulated; want burst_queueing in both", liveBlames, simBlames)
			}
		})
	}
}

// TestCloseDuringModelLoad: a worker waiting out a model load must notice
// shutdown at once instead of sleeping the load out.
func TestCloseDuringModelLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.ModelLoadDelay = 2 * time.Second
	cfg.ControlPeriod = time.Minute
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A recovered device reloads its model from scratch.
	loading := -1
	s.mu.Lock()
	for d := range s.workers {
		if s.plane.Hosted(d) != nil {
			loading = d
		}
	}
	s.mu.Unlock()
	if loading < 0 {
		t.Fatal("the initial plan hosts nothing, so nothing can be loading")
	}
	s.failDevice(loading)
	s.recoverDevice(loading)
	time.Sleep(50 * time.Millisecond) // let the worker enter the load wait
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("Close took %v during a %v model load", took, cfg.ModelLoadDelay)
	}
	// Close waits for every goroutine the server started; give exited
	// goroutines a moment to be reaped before counting.
	for wait := 0; runtime.NumGoroutine() > before && wait < 50; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before NewServer, %d after Close", before, n)
	}
}

// TestEachFieldHonouredOrRefused: both drivers take the engine's one Config,
// and every field is honoured by both or refused, by name, by the driver
// whose clock cannot serve it — none is silently ignored. The engine fields
// the live server once had no spelling for (Headroom, BurstCooldown,
// MetricsInterval) reach its plane.
func TestEachFieldHonouredOrRefused(t *testing.T) {
	for _, tc := range []struct {
		field                   string
		set                     func(*Config)
		liveRefuses, simRefuses bool
	}{
		{"Elastic", func(c *Config) { c.Elastic = &core.ElasticConfig{MaxExtra: 1} }, true, false},
		{"InitialDemand", func(c *Config) { c.InitialDemand = []float64{5, 5} }, false, true},
		{"ModelLoadDelay", func(c *Config) { c.ModelLoadDelay = time.Second }, false, true},
		{"ExecNoiseFrac", func(c *Config) { c.ExecNoiseFrac = 0.1 }, false, true},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.InitialDemand = nil
			tc.set(&cfg)
			s, err := NewServer(cfg)
			if err == nil {
				s.Close()
			}
			checkRefusal(t, "NewServer", tc.field, err, tc.liveRefuses)
			_, err = core.NewSystem(cfg)
			checkRefusal(t, "core.NewSystem", tc.field, err, tc.simRefuses)
		})
	}

	t.Run("LiveHonoursEngineFields", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.Headroom = 2
		cfg.BurstCooldown = 1500 * time.Millisecond
		cfg.MetricsInterval = 5 * time.Second
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctl := s.plane.Controller
		first := ctl.History()[0]
		for q, d := range cfg.InitialDemand {
			if want := 2 * d; first.Demand[q] != want {
				t.Errorf("initial plan solved family %d for %v QPS, want InitialDemand × Headroom = %v", q, first.Demand[q], want)
			}
		}
		if ctl.BurstCooldown != cfg.BurstCooldown || s.plane.Collector.Interval() != cfg.MetricsInterval {
			t.Errorf("cooldown %v, bins %v; want the config's %v, %v",
				ctl.BurstCooldown, s.plane.Collector.Interval(), cfg.BurstCooldown, cfg.MetricsInterval)
		}
	})
}

// checkRefusal asserts that driver refused field by name when refuse is
// set, and accepted it otherwise.
func checkRefusal(t *testing.T, driver, field string, err error, refuse bool) {
	t.Helper()
	switch {
	case refuse && (err == nil || !strings.Contains(err.Error(), "Config."+field)):
		t.Errorf("%s with %s set: error %v, want one naming Config.%s", driver, field, err, field)
	case !refuse && err != nil:
		t.Errorf("%s with %s set: %v", driver, field, err)
	}
}
