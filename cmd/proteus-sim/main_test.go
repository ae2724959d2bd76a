package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proteus"
)

func TestApplyDefaults(t *testing.T) {
	var cfg config
	applyDefaults(&cfg)
	if cfg.ModelAllocation != "ilp" || cfg.Batching != "accscale" ||
		cfg.ClusterSize != 20 || cfg.SLOMultiplier != 2 || cfg.Trace.Kind != "twitter" {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg2 := config{ModelAllocation: "sommelier", ClusterSize: 8}
	applyDefaults(&cfg2)
	if cfg2.ModelAllocation != "sommelier" || cfg2.ClusterSize != 8 {
		t.Fatalf("overrides clobbered: %+v", cfg2)
	}
}

func TestBuildTraceKinds(t *testing.T) {
	tw, err := buildTrace(traceConfig{Kind: "twitter", Seconds: 30})
	if err != nil || tw.Seconds() != 30 {
		t.Fatalf("twitter: %v %d", err, tw.Seconds())
	}
	bt, err := buildTrace(traceConfig{Kind: "bursty", Seconds: 40})
	if err != nil || bt.Seconds() != 40 {
		t.Fatalf("bursty: %v", err)
	}
	if _, err := buildTrace(traceConfig{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildTraceCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	src := proteus.NewTwitterTrace(proteus.TwitterTraceConfig{Seconds: 10})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := buildTrace(traceConfig{Kind: "csv", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds() != 10 || len(got.Families) != 9 {
		t.Fatalf("csv trace: %d s, %d families", got.Seconds(), len(got.Families))
	}
	if _, err := buildTrace(traceConfig{Kind: "csv", Path: filepath.Join(dir, "missing.csv")}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadConfig: every shipped config decodes, and a key the program does
// not know — the three solver keys it no longer has, or a typo — is an error
// naming the key rather than a silently applied default.
func TestLoadConfig(t *testing.T) {
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no configs found: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loadConfig(raw); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	for _, key := range []string{"solver_budget_ms", "solver_parallelism", "solver_cold_start", "cluster_sise"} {
		_, err := loadConfig([]byte(`{"cluster_size": 8, "` + key + `": 1}`))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("key %q: got error %v, want one naming the key", key, err)
		}
	}
	cfg, err := loadConfig([]byte(`{"solver_budget_nodes": 50}`))
	if err != nil || cfg.SolverBudgetNodes != 50 || cfg.ClusterSize != 20 {
		t.Errorf("solver_budget_nodes: %+v, %v", cfg, err)
	}
	if _, err := loadConfig([]byte(`{"cluster_size": 8} {"cluster_size": 9}`)); err == nil {
		t.Error("trailing data after the config object accepted")
	}
}
