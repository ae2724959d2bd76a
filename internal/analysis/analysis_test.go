package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusRoot is the synthetic module holding one golden package per checker.
const corpusRoot = "testdata/src"

// loadCorpus loads corpus packages together, with a fresh module instance
// (so tests are independent and order-insensitive).
func loadCorpus(t *testing.T, dirs ...string) (*Module, []*Package) {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./" + d
	}
	mod, pkgs, err := LoadModule(corpusRoot, patterns)
	if err != nil {
		t.Fatalf("loading %v: %v", dirs, err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("loading %v: got %d packages, want %d", dirs, len(pkgs), len(dirs))
	}
	return mod, pkgs
}

// runChecker runs one checker over already-loaded packages.
func runChecker(checker ModuleChecker, mod *Module, pkgs []*Package) []Finding {
	reg := &Registry{}
	reg.Register(checker)
	return reg.RunModule(mod, pkgs)
}

// wantMarker is the expectation comment in corpus files: a line carrying
// `// want <check>` must produce exactly one finding of that check.
const wantMarker = "// want "

// markerLines scans files for `// want <check>` markers and returns the set
// of base-name:line keys the checker must flag.
func markerLines(t *testing.T, filenames []string, check string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	for _, fn := range filenames {
		f, err := os.Open(fn)
		if err != nil {
			t.Fatal(err)
		}
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			text := scanner.Text()
			i := strings.Index(text, wantMarker)
			if i < 0 {
				continue
			}
			if got := strings.TrimSpace(text[i+len(wantMarker):]); got == check {
				want[fmt.Sprintf("%s:%d", filepath.Base(fn), line)] = true
			}
		}
		if err := scanner.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return want
}

// runGolden runs one checker over a set of corpus packages and compares the
// flagged lines against the `// want` markers of all of them (helper
// packages may carry none), in both directions.
func runGolden(t *testing.T, checker ModuleChecker, dirs ...string) []Finding {
	t.Helper()
	mod, pkgs := loadCorpus(t, dirs...)
	findings := runChecker(checker, mod, pkgs)

	var files []string
	for _, pkg := range pkgs {
		files = append(files, pkg.Filenames...)
	}
	want := markerLines(t, files, checker.Name())
	if len(want) == 0 {
		t.Fatalf("corpus %v has no `// want %s` markers", dirs, checker.Name())
	}
	got := make(map[string]bool)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("%v: expected a %s finding at %s, got none", dirs, checker.Name(), key)
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		if !want[key] {
			t.Errorf("%v: unexpected finding: %v", dirs, f)
		}
	}
	return findings
}

// corpusModule is the corpus's module path.
const corpusModule = "example.com/lintcheck"

// corpusDeterminism treats the determinism corpus package as a sink.
var corpusDeterminism = Determinism{Sinks: []string{corpusModule + "/determinism"}}

func TestDeterminismGolden(t *testing.T) { runGolden(t, corpusDeterminism, "determinism") }

func TestLockDisciplineGolden(t *testing.T) { runGolden(t, LockDiscipline{}, "lockdiscipline") }

func TestErrCheckGolden(t *testing.T) { runGolden(t, ErrCheck{}, "errcheck") }

// corpusSink is the import path the call-chain corpus treats as its
// seed-reproducible set.
const corpusSink = corpusModule + "/nondetsink"

// TestNondetGolden runs the determinism checker over the call-chain corpus:
// sources hidden in an unrestricted helper package must be reported where
// they enter the sink package.
func TestNondetGolden(t *testing.T) {
	findings := runGolden(t, Determinism{Sinks: []string{corpusSink}},
		"nondetsink", "nondethelper")

	// The acceptance shape: a wall-clock read two calls deep must surface
	// with its complete sink→source chain and the source's file:line.
	const wantChain = "nondetsink.Sample → nondethelper.Stamp → nondethelper.nowNanos → time.Now (nondethelper.go:"
	var chains []string
	for _, f := range findings {
		chains = append(chains, f.Message)
		if strings.Contains(f.Message, wantChain) {
			return
		}
	}
	t.Errorf("no finding carries the full call chain %q; got:\n%s", wantChain, strings.Join(chains, "\n"))
}

func TestLockOrderGolden(t *testing.T) {
	findings := runGolden(t, LockOrder{}, "lockorder", "lockorderx", "lockhelper")

	var cycle, cross string
	for _, f := range findings {
		if strings.Contains(f.Message, "potential deadlock") {
			cycle = f.Message
		}
		if strings.Contains(f.Message, "cross-package lock chain") {
			cross = f.Message
		}
	}
	// The cycle report must carry both acquisition sites — one per edge of
	// the two-lock inversion — and the helper call chain of the second.
	if cycle == "" {
		t.Fatal("no lock-order cycle finding")
	}
	if got := strings.Count(cycle, "while acquiring"); got != 2 {
		t.Errorf("cycle finding names %d acquisition sites, want 2: %s", got, cycle)
	}
	for _, frag := range []string{
		"(lockorder.A).mu → (lockorder.B).mu → (lockorder.A).mu",
		"in (*lockorder.Pair).TransferAB",
		"via (*lockorder.Pair).TransferBA → (*lockorder.Pair).lockA",
	} {
		if !strings.Contains(cycle, frag) {
			t.Errorf("cycle finding missing %q: %s", frag, cycle)
		}
	}
	if cross == "" {
		t.Fatal("no cross-package lock chain finding")
	}
	for _, frag := range []string{
		"(lockorderx.Coordinator).mu",
		"(lockhelper.Registry).mu",
		"via (*lockorderx.Coordinator).Update → (*lockhelper.Registry).Put",
	} {
		if !strings.Contains(cross, frag) {
			t.Errorf("cross-package finding missing %q: %s", frag, cross)
		}
	}
}

// TestAllowReasonGolden computes its expectations from the corpus text
// itself: a reasonless directive cannot carry a `// want` marker, because the
// marker text would become its reason.
func TestAllowReasonGolden(t *testing.T) {
	mod, pkgs := loadCorpus(t, "allowreason")
	pkg := pkgs[0]
	want := make(map[int]bool)
	for _, fn := range pkg.Filenames {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			at := strings.Index(line, allowPrefix)
			if at < 0 {
				continue
			}
			if len(strings.Fields(line[at+len(allowPrefix):])) == 1 {
				want[i+1] = true // check list only, no reason
			}
		}
	}
	if len(want) < 3 {
		t.Fatalf("allowreason corpus has only %d reasonless directives, want at least 3 (trailing, standalone, self-naming)", len(want))
	}
	got := make(map[int]bool)
	for _, f := range runChecker(AllowReason{}, mod, pkgs) {
		if f.Check != "allowreason" {
			t.Fatalf("unexpected check %s", f.Check)
		}
		got[f.Pos.Line] = true
	}
	for line := range want {
		if !got[line] {
			t.Errorf("expected an allowreason finding at line %d, got none", line)
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("unexpected allowreason finding at line %d", line)
		}
	}
}

// TestSuppressionDirectives pins the two //lint:allow forms (trailing and
// standalone-above) to actual suppression: every corpus file contains at
// least one directive, and no finding may land on a directive-carrying or
// directly-following line.
func TestSuppressionDirectives(t *testing.T) {
	for _, tc := range []struct {
		dir     string
		checker ModuleChecker
	}{
		{"determinism", corpusDeterminism},
		{"lockdiscipline", LockDiscipline{}},
		{"errcheck", ErrCheck{}},
	} {
		mod, pkgs := loadCorpus(t, tc.dir)
		allowed := make(map[int]bool)
		for _, fn := range pkgs[0].Filenames {
			data, err := os.ReadFile(fn)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if !strings.Contains(line, allowPrefix) {
					continue
				}
				allowed[i+1] = true
				if strings.TrimSpace(line)[:2] == "//" {
					allowed[i+2] = true // standalone form covers the next line
				}
			}
		}
		if len(allowed) == 0 {
			t.Fatalf("corpus %s has no //lint:allow directives", tc.dir)
		}
		for _, f := range runChecker(tc.checker, mod, pkgs) {
			if allowed[f.Pos.Line] {
				t.Errorf("%s: finding on a suppressed line: %v", tc.dir, f)
			}
		}
	}
}

// corpusRegistry mirrors DefaultRegistry over the corpus module, with both
// determinism corpus packages as sinks.
func corpusRegistry() *Registry {
	reg := &Registry{}
	reg.Register(Determinism{Sinks: []string{corpusModule + "/determinism", corpusSink}})
	reg.Register(LockDiscipline{})
	reg.Register(ErrCheck{})
	reg.Register(AllowReason{})
	reg.Register(LockOrder{})
	return reg
}

// TestOutputDeterminism loads the whole corpus twice from scratch and
// requires the two formatted reports to be byte-identical and sorted: a
// linter whose own output order wobbles cannot gate CI.
func TestOutputDeterminism(t *testing.T) {
	report := func() string {
		reg := corpusRegistry()
		findings, err := reg.Run(corpusRoot, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			fmt.Fprintln(&b, f)
		}
		return b.String()
	}
	first, second := report(), report()
	if first != second {
		t.Fatalf("two runs over identical sources diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("corpus run produced only %d findings; corpus or checkers broken", len(lines))
	}
	// Findings must be ordered by file then numeric position.
	type key struct {
		file      string
		line, col int
	}
	var prev key
	for _, l := range lines {
		parts := strings.SplitN(l, ":", 4)
		if len(parts) < 4 {
			t.Fatalf("malformed report line: %q", l)
		}
		var k key
		k.file = parts[0]
		fmt.Sscanf(parts[1], "%d", &k.line)
		fmt.Sscanf(parts[2], "%d", &k.col)
		if prev.file != "" && (k.file < prev.file ||
			(k.file == prev.file && (k.line < prev.line || (k.line == prev.line && k.col < prev.col)))) {
			t.Fatalf("report out of order at %q (after %v)", l, prev)
		}
		prev = k
	}
}

// TestDefaultRegistryChecks guards the advertised checker set.
func TestDefaultRegistryChecks(t *testing.T) {
	var names []string
	for _, c := range DefaultRegistry("proteus").Checkers() {
		names = append(names, c.Name())
		if c.Doc() == "" {
			t.Errorf("checker %s has no doc line", c.Name())
		}
	}
	want := []string{"determinism", "lockdiscipline", "errcheck", "allowreason", "lockorder"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registry checks = %v, want %v", names, want)
	}
}
