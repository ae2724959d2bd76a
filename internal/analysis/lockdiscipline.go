package analysis

import (
	"go/ast"
	"go/token"
)

// LockDiscipline flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held in the same function body: channel sends and
// receives, select statements without a default case, range over a channel,
// time.Sleep, sync.WaitGroup.Wait / sync.Cond.Wait and sync.Once.Do (which
// blocks every caller until the first call returns). Blocking under a
// lock is how the serving data path deadlocks or convoys under load — the
// repo's convention (see internal/serving/worker.go) is to copy state out,
// unlock, then block.
//
// The analysis is intraprocedural: it follows the held set of the shared
// lockWalker, which tells instances apart by receiver expression. Calls into
// other functions that might block are out of scope.
type LockDiscipline struct{}

// Name implements ModuleChecker.
func (LockDiscipline) Name() string { return "lockdiscipline" }

// Doc implements ModuleChecker.
func (LockDiscipline) Doc() string {
	return "flag channel operations and blocking calls made while a sync (RW)Mutex is held"
}

// RunModule implements ModuleChecker.
func (LockDiscipline) RunModule(mp *ModulePass) {
	for _, node := range mp.CallGraph().Nodes() {
		walkLocks(node, ldEvents{mp})
	}
}

// ldEvents reports block events under a non-empty held set.
type ldEvents struct{ mp *ModulePass }

func (ldEvents) acquire(*lockWalker, string, token.Pos) {}
func (ldEvents) call(*lockWalker, *ast.CallExpr, bool)  {}

func (e ldEvents) block(w *lockWalker, pos token.Pos, what string) {
	if len(w.held) == 0 {
		return
	}
	// Report against the earliest held lock for a stable message.
	var key string
	var at token.Pos
	for k, h := range w.held {
		if key == "" || h.pos < at || (h.pos == at && k < key) {
			key, at = k, h.pos
		}
	}
	e.mp.Reportf(pos, "%s while %s is locked (held since line %d); copy state out and release the lock before blocking",
		what, key, e.mp.Fset.Position(at).Line)
}
