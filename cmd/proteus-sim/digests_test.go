package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

// digestConfigs are the reference configs whose every output
// TestReferenceDigests pins: the baselines, the incident and fault paths, the
// exact DP on the default cluster, and the overload guard.
var digestConfigs = []string{"infaas", "clipper_ha", "incident_smoke", "proteus", "overload_adversarial"}

// digestFlags turn every output on; the file names are what stdout reports.
var digestFlags = []string{
	"-metrics", "metrics.txt",
	"-tsdb", "tsdb.json",
	"-trace", "trace.jsonl",
	"-timeseries", "series.csv",
	"-incidents", "incidents",
}

const digestsFile = "testdata/digests.txt"

// TestReferenceDigests runs proteus-sim in-process on the reference configs
// with every output on and compares the SHA-256 of each output with
// testdata/digests.txt, so a change that moves a plan, a query's fate or a
// byte of any output shows as a diff of that file; `go test ./cmd/proteus-sim
// -run TestReferenceDigests -update` rewrites it. Outputs stream into the
// hashes and never reach the disk, except the incident log, which the flight
// recorder writes into a directory of its own. The wall-clock line is never
// written (run's wall writer is nil), so stdout is hashed whole.
//
// The digests hold on amd64 only; the file's header says why. The incident
// log also records the Go version in each bundle, so its lines are compared
// only under the toolchain the header names.
func TestReferenceDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; GOARCH is %s (see %s)", runtime.GOARCH, digestsFile)
	}
	want, toolchain := readDigests(t)
	configs, err := filepath.Abs("../../configs")
	if err != nil {
		t.Fatal(err)
	}
	// Run from an empty directory: stdout names the incident directory, so
	// it must be the same relative path on every run.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	digestsPath := filepath.Join(wd, digestsFile)
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	var got []string
	for _, name := range digestConfigs {
		sums := map[string]hash.Hash{"stdout": sha256.New()}
		create := func(path string) (io.WriteCloser, error) {
			h := sha256.New()
			sums[path] = h
			return nopCloser{h}, nil
		}
		args := append([]string{"-config", filepath.Join(configs, name+".json")}, digestFlags...)
		if err := run(args, sums["stdout"], nil, create); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log, err := os.Open(filepath.Join("incidents", "incidents.log"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		_, err = io.Copy(h, log)
		log.Close()
		if err != nil {
			t.Fatal(err)
		}
		sums["incidents/incidents.log"] = h
		if err := os.RemoveAll("incidents"); err != nil {
			t.Fatal(err)
		}
		for _, out := range []string{"stdout", "metrics.txt", "tsdb.json", "trace.jsonl", "series.csv", "incidents/incidents.log"} {
			got = append(got, fmt.Sprintf("%s %s %x", name, out, sums[out].Sum(nil)))
		}
	}

	if *update {
		var buf bytes.Buffer
		buf.WriteString(digestsHeader)
		fmt.Fprintf(&buf, "# toolchain %s\n", runtime.Version())
		for _, line := range got {
			buf.WriteString(line + "\n")
		}
		if err := os.WriteFile(digestsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	sameToolchain := toolchain == runtime.Version()
	if !sameToolchain {
		t.Logf("digests were recorded with %s, this is %s: incident logs are not compared", toolchain, runtime.Version())
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s has %d", len(got), digestsFile, len(want))
	}
	for i, line := range got {
		if line == want[i] || (!sameToolchain && strings.Contains(line, "incidents.log")) {
			continue
		}
		t.Errorf("digest changed:\n got  %s\n want %s", line, want[i])
	}
}

// digestsHeader opens testdata/digests.txt.
const digestsHeader = `# SHA-256 of every proteus-sim output on the reference configs, one line
# per (config, output). TestReferenceDigests rebuilds them in-process;
# go test ./cmd/proteus-sim -run TestReferenceDigests -update rewrites this
# file, so a change that moves a plan shows as a diff of it.
#
# amd64 only: the Go spec lets a compiler fuse x*y+z into one rounding.
# go1.24 compiles it to FMADDD on arm64 and to MULSD + ADDSD on amd64 (also
# at GOAMD64=v3), so other architectures compute different floats and these
# digests do not apply there. The incident log records the Go version in
# each bundle; its lines are compared only under the toolchain below.
`

// readDigests reads testdata/digests.txt: its digest lines and the
// toolchain its header names.
func readDigests(t *testing.T) (lines []string, toolchain string) {
	t.Helper()
	f, err := os.Open(digestsFile)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return nil, ""
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# toolchain "); ok {
			toolchain = v
		} else if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, toolchain
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
