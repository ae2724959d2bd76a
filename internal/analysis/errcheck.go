package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags in-module calls whose error result is dropped — either a
// bare expression statement or a discard through the blank identifier
// (`_ = f()`, `x, _ := g()`). Within this repository an ignored error is
// almost always an allocation or validation failure silently swallowed — the
// exact failure mode PR 1's fallback chain exists to surface. Blank-
// identifier discards were originally treated as deliberate and exempt;
// experience says they hide exactly the same bugs with a veneer of intent,
// so a discard that really is sound must now carry a //lint:allow errcheck
// with its reason. Only functions defined in this module are checked: stdlib
// print-style calls whose errors are conventionally ignored stay quiet.
type ErrCheck struct{}

// Name implements ModuleChecker.
func (ErrCheck) Name() string { return "errcheck" }

// Doc implements ModuleChecker.
func (ErrCheck) Doc() string {
	return "flag discarded error results (dropped or blank-assigned) from functions defined in this module"
}

// RunModule implements ModuleChecker.
func (e ErrCheck) RunModule(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						e.checkCall(mp, pkg, call, -1)
					}
				case *ast.AssignStmt:
					e.checkAssign(mp, pkg, n)
				}
				return true
			})
		}
	}
}

// checkAssign flags error results assigned to the blank identifier. Two
// shapes: a multi-value call (`x, _ := g()`) where the error position is
// blank, and pairwise assignment (`_ = f()`) where the sole result is an
// error.
func (e ErrCheck) checkAssign(mp *ModulePass, pkg *Package, assign *ast.AssignStmt) {
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		errAt := moduleErrResult(mp.Module, pkg.Info, call)
		if errAt < 0 || errAt >= len(assign.Lhs) || !isBlank(assign.Lhs[errAt]) {
			return
		}
		e.checkCall(mp, pkg, call, errAt)
		return
	}
	if len(assign.Rhs) == len(assign.Lhs) {
		for i := range assign.Rhs {
			call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
			if !ok || !isBlank(assign.Lhs[i]) {
				continue
			}
			e.checkCall(mp, pkg, call, 0)
		}
	}
}

// moduleErrResult returns the index of call's error result when the callee
// is an in-module function that has one, else -1.
func moduleErrResult(module string, info *types.Info, call *ast.CallExpr) int {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return -1
	}
	path := fn.Pkg().Path()
	if !underPrefix(path, []string{module}) {
		return -1
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return -1
	}
	results := sig.Results()
	errAt := -1
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errAt = i
		}
	}
	return errAt
}

// checkCall reports the discarded error of one in-module call. blankAt < 0
// means the whole statement drops every result; otherwise the error result
// went to the blank identifier.
func (e ErrCheck) checkCall(mp *ModulePass, pkg *Package, call *ast.CallExpr, blankAt int) {
	errAt := moduleErrResult(mp.Module, pkg.Info, call)
	if errAt < 0 {
		return
	}
	fn := calleeFunc(pkg.Info, call)
	how := "discarded"
	if blankAt >= 0 {
		how = "discarded via the blank identifier"
	}
	mp.Reportf(call.Pos(),
		"result %d (error) of %s.%s is %s; handle it or annotate the deliberate discard with //lint:allow errcheck",
		errAt, pathBase(fn.Pkg().Path()), fn.Name(), how)
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}
