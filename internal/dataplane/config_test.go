package dataplane

import (
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/flightrec"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/profiles"
	"proteus/internal/tsdb"
)

// TestNewChecksAndDefaults pins the engine's one set of checks and defaults:
// New refuses a config without a cluster, families or an allocator, with a
// fault schedule naming a device outside the cluster, or with a flight
// recorder or an overload guard that degrades but no tsdb recorder, and
// names the fields, and resolves what a minimal config leaves zero — the
// values both drivers run with unless their callers (or the driver's own
// clock) set them.
func TestNewChecksAndDefaults(t *testing.T) {
	fams := models.Zoo()[:2]
	minimal := func() Config {
		return Config{
			Cluster:   cluster.ScaledTestbed(4),
			Families:  fams,
			Allocator: allocator.NewInfaasAccuracy(),
		}
	}
	for _, tc := range []struct {
		fields []string
		mut    func(*Config)
	}{
		{[]string{"Cluster"}, func(c *Config) { c.Cluster = nil }},
		{[]string{"Cluster"}, func(c *Config) { c.Cluster = cluster.New(nil) }},
		{[]string{"Families"}, func(c *Config) { c.Families = nil }},
		{[]string{"Allocator"}, func(c *Config) { c.Allocator = nil }},
		{[]string{"Faults"}, func(c *Config) {
			c.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{{Device: 4, FailAt: time.Second}}}
		}},
		{[]string{"Flight", "TSDB"}, func(c *Config) { c.Flight = flightrec.New(flightrec.Config{}) }},
		{[]string{"Overload", "TSDB"}, func(c *Config) { c.Overload = &overload.Config{Enabled: true} }},
	} {
		cfg := minimal()
		tc.mut(&cfg)
		_, err := New(cfg)
		for _, f := range tc.fields {
			if err == nil || !strings.Contains(err.Error(), "Config."+f) {
				t.Errorf("%v: New returned error %v, want one naming Config.%s", tc.fields, err, f)
			}
		}
	}
	cfg := minimal()
	cfg.Flight, cfg.TSDB = flightrec.New(flightrec.Config{}), tsdb.NewRecorder(tsdb.Config{})
	if _, err := New(cfg); err != nil {
		t.Errorf("flight and tsdb recorders: %v", err)
	}
	cfg = minimal()
	cfg.Overload = &overload.Config{Enabled: true, DisableDegradation: true}
	if _, err := New(cfg); err != nil {
		t.Errorf("overload guard that never degrades, no tsdb recorder: %v", err)
	}

	for _, tc := range []struct {
		name             string
		period           time.Duration
		wantPeriod, cool time.Duration
	}{
		{"minimal", 0, 30 * time.Second, 10 * time.Second},
		{"12 s period", 12 * time.Second, 12 * time.Second, 4 * time.Second},
	} {
		cfg := minimal()
		cfg.ControlPeriod = tc.period
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ctl := p.Controller
		if ctl.Period != tc.wantPeriod || ctl.BurstCooldown != tc.cool {
			t.Errorf("%s: period %v, cooldown %v; want %v, %v", tc.name, ctl.Period, ctl.BurstCooldown, tc.wantPeriod, tc.cool)
		}
		if w := p.Stats.Monitors[0].WindowSeconds; time.Duration(w)*time.Second != tc.wantPeriod {
			t.Errorf("%s: demand window %d s, want the period", tc.name, w)
		}
		if p.cfg.Headroom != 1.05 || p.Collector.Interval() != 10*time.Second || p.cfg.MaxRetries != 1 {
			t.Errorf("%s: headroom %v, bins %v, retries %d; want 1.05, 10s, 1",
				tc.name, p.cfg.Headroom, p.Collector.Interval(), p.cfg.MaxRetries)
		}
		for q, f := range fams {
			if want := profiles.FamilySLO(f, 2); p.slos[q] != want {
				t.Errorf("%s: %s SLO %v, want %v (×2)", tc.name, f.Name, p.slos[q], want)
			}
		}
	}
}
