package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockWalker is the one held-lock model shared by lockdiscipline and
// lockorder. It walks a function body in statement order: Lock/RLock add a
// lock to the held set, Unlock/RUnlock remove it, and defer Unlock keeps it
// to the end of the body. A conditional block walks a copy of the held set:
// locks it takes stay branch-local, but unlocks by a branch that falls
// through (does not end in return/break/continue/goto/panic) propagate out,
// so the common
//
//	mu.Lock(); if cond { mu.Unlock(); return }  // stays held after
//	mu.Lock(); if cond { ...; mu.Unlock() } else { mu.Unlock() }  // released
//
// shapes are both modeled without false positives.
//
// The held set is keyed by the receiver expression's source form, so a.mu
// and b.mu are distinct even when they share a type, and each entry carries
// the lock's module-wide identity (lockKey) alongside: lockdiscipline reports
// per instance, lockorder builds its graph over identities.
//
// Function literals run later — as goroutines, callbacks or deferred calls —
// so each is walked with an empty held set where it appears. A deferred or
// spawned call is reported as detached: it does not run under the current
// held set, though its arguments are evaluated here.
type lockWalker struct {
	pkg  *Package
	fn   string // enclosing declared function, for lockKey of local mutexes
	held map[string]heldLock
	ev   lockEvents
}

// heldLock is one entry of the held set.
type heldLock struct {
	id  string    // module-wide identity (lockKey)
	pos token.Pos // where it was taken
}

// lockEvents receives what happens under the held set (w.held at the time
// of the call; implementations copy what they keep).
type lockEvents interface {
	// acquire is a Lock/RLock of id at pos, reported before it joins w.held.
	acquire(w *lockWalker, id string, pos token.Pos)
	// block is an operation that may block indefinitely, named by what.
	block(w *lockWalker, pos token.Pos, what string)
	// call is a call expression; detached calls run without w.held.
	call(w *lockWalker, call *ast.CallExpr, detached bool)
}

// walkLocks walks one declared function's body with an empty held set.
func walkLocks(node *CGNode, ev lockEvents) {
	w := &lockWalker{pkg: node.Pkg, fn: node.Name, held: map[string]heldLock{}, ev: ev}
	w.stmts(node.Body.List)
}

func (w *lockWalker) clone() *lockWalker {
	c := *w
	c.held = make(map[string]heldLock, len(w.held))
	for k, v := range w.held {
		c.held[k] = v
	}
	return &c
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if sel, locked, ok := mutexLockOp(w.pkg.Info, s.X); ok {
			key := types.ExprString(sel.X)
			if locked {
				id := lockKey(w.pkg, w.fn, sel.X)
				w.ev.acquire(w, id, s.Pos())
				w.held[key] = heldLock{id: id, pos: s.Pos()}
			} else {
				delete(w.held, key)
			}
			return
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the body —
		// exactly what the held set already models.
		if _, _, ok := mutexLockOp(w.pkg.Info, s.Call); !ok {
			w.detached(s.Call)
		}
	case *ast.GoStmt:
		w.detached(s.Call)
	case *ast.SendStmt:
		w.ev.block(w, s.Pos(), "channel send")
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.branch(e)
		case *ast.IfStmt:
			w.stmt(e)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body)
	case *ast.RangeStmt:
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.ev.block(w, s.Pos(), "range over channel")
			}
		}
		w.expr(s.X)
		w.branch(s.Body)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.ev.block(w, s.Pos(), "select without default case")
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Tag)
		w.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.caseBodies(s.Body)
	}
}

func (w *lockWalker) caseBodies(body *ast.BlockStmt) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			w.clone().stmts(cc.Body)
		}
	}
}

// branch walks a conditional block with a copy of the held set and
// propagates the unlocks of a falling-through branch.
func (w *lockWalker) branch(body *ast.BlockStmt) {
	sub := w.clone()
	sub.stmts(body.List)
	if terminates(body) {
		return
	}
	for key := range w.held {
		if _, still := sub.held[key]; !still {
			delete(w.held, key)
		}
	}
}

// terminates reports whether the block's last statement transfers control
// away (so its lock-state changes never reach the code after the branch).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expr reports what evaluating e does under the held set: channel receives
// and blocking calls as block events, every call as a call event. Function
// literals are walked with an empty held set.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.funcLit(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.ev.block(w, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if what := blockingCall(w.pkg.Info, n); what != "" {
				w.ev.block(w, n.Pos(), what)
			}
			w.ev.call(w, n, false)
		}
		return true
	})
}

// detached handles the call of a defer or go statement.
func (w *lockWalker) detached(call *ast.CallExpr) {
	w.ev.call(w, call, true)
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.funcLit(lit)
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

func (w *lockWalker) funcLit(lit *ast.FuncLit) {
	sub := &lockWalker{pkg: w.pkg, fn: w.fn, held: map[string]heldLock{}, ev: w.ev}
	sub.stmts(lit.Body.List)
}

// blockingCall names calls that block by construction: time.Sleep,
// sync.WaitGroup.Wait, sync.Cond.Wait and sync.Once.Do ("" for any other).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		recv := recvTypeName(fn)
		if fn.Name() == "Wait" && (recv == "WaitGroup" || recv == "Cond") {
			return "sync." + recv + ".Wait"
		}
		// Once.Do blocks every caller until the first call's fn returns, so
		// it is an arbitrary-latency wait from the second caller's view.
		if fn.Name() == "Do" && recv == "Once" {
			return "sync.Once.Do"
		}
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// mutexLockOp classifies expr as a Lock/RLock (locked=true) or
// Unlock/RUnlock (locked=false) call on a sync.Mutex or sync.RWMutex and
// returns the selector, whose X is the receiver.
func mutexLockOp(info *types.Info, expr ast.Expr) (sel *ast.SelectorExpr, locked, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return nil, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel, true, true
	case "Unlock", "RUnlock":
		return sel, false, true
	}
	return nil, false, false
}

// recvTypeName returns the name of a method's receiver type ("" for plain
// functions).
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	if named := derefNamed(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// lockKey canonicalizes a mutex receiver expression to a module-wide lock
// identity:
//
//   - struct fields key by declaring named type — "(pkg.Type).mu" — merging
//     all instances;
//   - an identifier whose type is a named struct embedding the mutex keys as
//     "(pkg.Type).Mutex";
//   - package-level variables key as "pkg.var";
//   - function locals and unrecognized shapes key per function (fn), which
//     keeps them out of cross-function ordering claims.
func lockKey(pkg *Package, fn string, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if named := derefNamed(pkg.Info.TypeOf(e.X)); named != nil {
			return "(" + qualifiedTypeName(named) + ")." + e.Sel.Name
		}
		return lockKey(pkg, fn, e.X) + "." + e.Sel.Name
	case *ast.Ident:
		if v, ok := pkg.Info.ObjectOf(e).(*types.Var); ok {
			if named := derefNamed(v.Type()); named != nil && !isSyncLockType(named) {
				return "(" + qualifiedTypeName(named) + ").Mutex"
			}
			if v.Parent() == pkg.Types.Scope() {
				return pkg.Path + "." + e.Name
			}
		}
		return fn + "$" + e.Name
	case *ast.UnaryExpr:
		return lockKey(pkg, fn, e.X)
	default:
		return fn + "$" + types.ExprString(e)
	}
}

// derefNamed unwraps pointers and returns the named type, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func qualifiedTypeName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func isSyncLockType(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
