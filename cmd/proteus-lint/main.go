// Command proteus-lint runs the project's static invariant checkers (see
// internal/analysis) over the module and reports findings with file:line:col
// positions and check IDs. It exits 1 when any finding is reported and 2 on
// load or usage errors, so CI can gate on a clean tree:
//
//	go run ./cmd/proteus-lint ./...
//
//	-checks  list the registered checks
//	-allows  list every //lint:allow directive with file:line and reason
//
// Findings are suppressed per line with a `//lint:allow <check> <reason>`
// comment on the offending line or the line directly above it; the reason is
// mandatory (enforced by the allowreason check).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"proteus/internal/analysis"
)

func main() {
	checks := flag.Bool("checks", false, "list registered checks and exit")
	allows := flag.Bool("allows", false, "list every //lint:allow suppression with file:line and reason, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: proteus-lint [-checks] [-allows] [packages]\n\npackages are ./..., ./dir/... or ./dir patterns (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	check(err)
	mod, err := analysis.NewModule(root)
	check(err)
	registry := analysis.DefaultRegistry(mod.Path)

	if *checks {
		for _, c := range registry.Checkers() {
			fmt.Printf("%-16s %s\n", c.Name(), c.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *allows {
		_, pkgs, err := analysis.LoadModule(root, patterns)
		check(err)
		rel := func(fn string) string { return relPath(root, fn) }
		check(analysis.WriteAllows(os.Stdout, analysis.CollectDirectives(pkgs), rel))
		return
	}

	findings, err := registry.Run(root, patterns)
	check(err)
	for i := range findings {
		findings[i].Pos.Filename = relPath(root, findings[i].Pos.Filename)
	}
	check(analysis.WriteText(os.Stdout, findings))
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "proteus-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// check exits 2 on a load, usage or write error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-lint:", err)
		os.Exit(2)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// relPath shortens filename to be root-relative when possible.
func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return rel
	}
	return filename
}
