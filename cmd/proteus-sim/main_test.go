package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proteus/internal/flightrec"
	"proteus/internal/trace"
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
	src := trace.NewTwitter(trace.TwitterConfig{Seconds: 10})
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
// not know — the four solver keys and two overload switches it no longer
// has, or a typo — is an error naming the key rather than a silently
// applied default.
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
	for _, key := range []string{"solver_budget_ms", "solver_budget_nodes", "solver_parallelism", "solver_cold_start", "cluster_sise"} {
		_, err := loadConfig([]byte(`{"cluster_size": 8, "` + key + `": 1}`))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("key %q: got error %v, want one naming the key", key, err)
		}
	}
	for _, key := range []string{"disable_admission", "disable_backpressure"} {
		_, err := loadConfig([]byte(`{"cluster_size": 8, "overload": {"enabled": true, "` + key + `": true}}`))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("key overload.%s: got error %v, want one naming the key", key, err)
		}
	}
	if _, err := loadConfig([]byte(`{"cluster_size": 8} {"cluster_size": 9}`)); err == nil {
		t.Error("trailing data after the config object accepted")
	}
}

// TestIncidentCountIsTheLogs: the count proteus-sim prints is the number of
// bundles in the incident log, not of those the recorder keeps in memory
// (the newest 16); overload_adversarial triggers many more than 16.
func TestIncidentCountIsTheLogs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	var stdout bytes.Buffer
	if err := run([]string{"-config", "../../configs/overload_adversarial.json", "-incidents", dir}, &stdout, nil, nil); err != nil {
		t.Fatal(err)
	}
	l, err := flightrec.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(l.IDs()); n <= 16 {
		t.Fatalf("%d bundles in the log, want more than the recorder keeps in memory", n)
	}
	if want := fmt.Sprintf("incidents: %d bundles in %s\n", len(l.IDs()), dir); !strings.Contains(stdout.String(), want) {
		t.Fatalf("stdout does not report the log's count %q:\n%s", want, stdout.String())
	}
}

// TestDocExamplesLoad holds the package comment to the loader: its first
// indented block is a whole config, and every later block is a fragment of
// top-level keys that, merged into that config, must load.
func TestDocExamplesLoad(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	inBlock := false
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		code, ok := strings.CutPrefix(line, "\t")
		switch {
		case ok && inBlock:
			blocks[len(blocks)-1] += "\n" + code
		case ok:
			blocks = append(blocks, code)
		}
		inBlock = ok
	}
	if len(blocks) < 2 {
		t.Fatalf("package comment has %d example blocks, want a config and fragments", len(blocks))
	}
	var full map[string]json.RawMessage
	if err := json.Unmarshal([]byte(blocks[0]), &full); err != nil {
		t.Fatalf("full example: %v\n%s", err, blocks[0])
	}
	for _, frag := range blocks {
		if !strings.HasPrefix(frag, "{") {
			frag = "{" + frag + "}"
		}
		merged := maps.Clone(full)
		if err := json.Unmarshal([]byte(frag), &merged); err != nil {
			t.Fatalf("fragment: %v\n%s", err, frag)
		}
		raw, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loadConfig(raw); err != nil {
			t.Errorf("fragment does not load: %v\n%s", err, frag)
		}
	}
}
