// Package analysis is a small static-analysis framework for the Proteus
// repository, built entirely on the standard library's go/parser, go/ast and
// go/types. It exists because the properties Proteus's evaluation rests on —
// the simulator tracking the testbed within ~1%, repeated runs being
// bit-for-bit reproducible from a seed, the serving path never blocking under
// a lock — are invariants that runtime tests cannot economically cover: a
// stray time.Now() in the simulated-clock path or an unsorted map iteration in
// plan construction produces silent drift, not a crash.
//
// The framework loads the module from source (non-test files only: _test.go
// files are neither analysed nor scanned for directives), type-checks every
// package with a stdlib-only importer, builds one module-wide call graph, and
// runs a registry of project-specific checkers over all packages together
// (see determinism.go, lockdiscipline.go, lockorder.go, errcheck.go,
// directives.go). Findings carry file:line:col positions and a check ID, and
// can be suppressed for a single line with a trailing
//
//	//lint:allow <check> <reason>
//
// comment (or one placed on the line directly above). The cmd/proteus-lint
// CLI is the command-line entry point; CI runs it over ./... and fails on any
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the finding as path:line:col: check: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// ModuleChecker is one invariant check, run once over every loaded package
// together. Checkers see the whole call graph, so they can follow a
// nondeterminism source or a lock acquisition across package boundaries.
type ModuleChecker interface {
	// Name is the check ID used in reports and //lint:allow directives.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// RunModule inspects the module and reports findings through the pass.
	RunModule(pass *ModulePass)
}

// ModulePass is the whole-module context handed to ModuleChecker.RunModule.
// Pkgs is sorted by import path regardless of load order, so checkers are
// deterministic by construction.
type ModulePass struct {
	Fset   *token.FileSet
	Module string
	Pkgs   []*Package

	check    string
	findings *[]Finding
	cg       *CallGraph
}

// Reportf records a finding at pos unless a //lint:allow directive suppresses
// the current check on that line (in whichever package owns the file).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, pkg := range p.Pkgs {
		if pkg.directives.allows(position.Filename, position.Line, p.check) {
			return
		}
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// CallGraph returns the module-wide call graph, built once and shared by
// every checker in the pass.
func (p *ModulePass) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = BuildCallGraph(p.Module, p.Pkgs)
	}
	return p.cg
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function-typed variables, built-ins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// underPrefix reports whether path is one of prefixes or nested below one.
func underPrefix(path string, prefixes []string) bool {
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// Registry is an ordered set of checkers.
type Registry struct {
	checkers []ModuleChecker
}

// Register adds a checker.
func (r *Registry) Register(c ModuleChecker) {
	r.checkers = append(r.checkers, c)
}

// Checkers lists the registered checkers in registration order.
func (r *Registry) Checkers() []ModuleChecker {
	return append([]ModuleChecker(nil), r.checkers...)
}

// DeterministicPackages are the import-path suffixes (relative to the module)
// whose computations must be reproducible from a seed: the simulated clock
// and the serving engine it drives, the controller's re-plan policy, plan
// construction and the solvers. The determinism checker reports sources
// written in these packages and call chains that carry a source into them.
var DeterministicPackages = []string{
	"internal/core",
	"internal/dataplane",
	"internal/controlplane",
	"internal/allocator",
	"internal/attrib",
	"internal/lp",
	"internal/milp",
	"internal/flightrec",
	"internal/overload",
	"internal/simulation",
	"internal/tsdb",
}

// DefaultRegistry returns the project's standard checker set for the given
// module path.
func DefaultRegistry(module string) *Registry {
	sinks := make([]string, len(DeterministicPackages))
	for i, s := range DeterministicPackages {
		sinks[i] = module + "/" + s
	}
	r := &Registry{}
	r.Register(Determinism{Sinks: sinks})
	r.Register(LockDiscipline{})
	r.Register(ErrCheck{})
	r.Register(AllowReason{})
	r.Register(LockOrder{})
	return r
}

// RunModule runs every registered checker once over the given packages and
// returns the findings sorted. The packages are re-sorted by import path
// internally, so the caller's load order cannot influence the report.
func (r *Registry) RunModule(mod *Module, pkgs []*Package) []Finding {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var findings []Finding
	pass := &ModulePass{
		Fset:     mod.Fset,
		Module:   mod.Path,
		Pkgs:     sorted,
		findings: &findings,
	}
	for _, c := range r.checkers {
		pass.check = c.Name()
		c.RunModule(pass)
	}
	SortFindings(findings)
	return findings
}

// Run loads the packages matching patterns under the module rooted at root
// and returns all findings in deterministic order. Checkers see exactly the
// loaded subset: run with "./..." for whole-module analysis.
func (r *Registry) Run(root string, patterns []string) ([]Finding, error) {
	mod, pkgs, err := LoadModule(root, patterns)
	if err != nil {
		return nil, err
	}
	return r.RunModule(mod, pkgs), nil
}

// SortFindings orders findings by file, line, column, check and message so
// reports are reproducible run to run.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
