// Package lockhold enforces the serving layer's off-lock compute
// discipline (PR 7): expensive work — GP fit/predict, JSON
// encoding, file I/O, fsync — must not run while a sync.Mutex or
// sync.RWMutex is held, because every other goroutine needing that
// lock stalls behind the disk or the model for the duration. The
// serving hot path gates per-session work with a busy-flag
// single-flight instead, and holds mutexes only around flag and map
// updates.
//
// Scope: the packages where the discipline is the design contract —
// tune, internal/wal, internal/knowledge, internal/rollout.
// internal/core is deliberately out of scope: core.OnlineTune
// serializes whole tuning operations under its own coarse mutex by
// design, and its callers single-flight around it.
//
// The analysis is per-function and position-based: a lock is
// considered held from a `mu.Lock()` / `mu.RLock()` call to the
// matching `mu.Unlock()` / `mu.RUnlock()` later in the function (to
// the function's end for a deferred unlock). It does not follow calls,
// so work hidden behind a helper invoked under a lock is not seen —
// the repo's *Locked-suffix helpers keep their expensive work visible
// at the call site that takes the lock, which is what makes the local
// rule useful.
package lockhold

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flag expensive calls (GP fit/predict, JSON encode, file I/O, fsync) made while a sync.Mutex/RWMutex is held",
	Run:  run,
}

var scoped = []string{"tune", "internal/wal", "internal/knowledge", "internal/rollout"}

// expensiveNames match by bare name regardless of receiver: the GP
// surface (Fit/Refit/Predict/PredictAll/HyperOpt) and the durable
// flush points (Commit/SyncFile).
var expensiveNames = map[string]bool{
	"Fit": true, "Refit": true, "Predict": true, "PredictAll": true,
	"HyperOpt": true, "Commit": true, "SyncFile": true,
}

// expensiveStd match by package path + name: serialization and file
// I/O from the standard library.
var expensiveStd = map[string]map[string]bool{
	"encoding/json": {"Marshal": true, "MarshalIndent": true, "Unmarshal": true, "Encode": true, "Decode": true},
	"os": {"ReadFile": true, "WriteFile": true, "Open": true, "Create": true,
		"OpenFile": true, "CreateTemp": true, "Rename": true, "Remove": true, "RemoveAll": true},
	"io": {"Copy": true, "ReadAll": true},
}

func run(pass *analysis.Pass) (any, error) {
	if analysis.InScope(pass.Pkg.Path(), scoped) {
		pass.FuncBodies(func(body *ast.BlockStmt) { checkFunc(pass, body) })
	}
	return nil, nil
}

// span is one held-lock interval within a function body.
type span struct {
	name       string // rendering of the lock expression, e.g. "s.mu"
	start, end ast.Node
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var locks, unlocks, deferredUnlocks []*ast.CallExpr
	analysis.WalkShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isMutexOp(pass, n.Call, "Unlock", "RUnlock") {
				deferredUnlocks = append(deferredUnlocks, n.Call)
			}
		case *ast.CallExpr:
			if isMutexOp(pass, n, "Lock", "RLock") {
				locks = append(locks, n)
			} else if isMutexOp(pass, n, "Unlock", "RUnlock") {
				unlocks = append(unlocks, n)
			}
		}
	})
	if len(locks) == 0 {
		return
	}
	deferred := map[*ast.CallExpr]bool{}
	for _, d := range deferredUnlocks {
		deferred[d] = true
	}
	var spans []span
	for _, lk := range locks {
		recv := recvString(lk)
		s := span{name: recv, start: lk, end: body}
		// The matching release is the nearest non-deferred unlock of the
		// same expression after the acquire; a deferred unlock (or none)
		// holds to the end of the function.
		for _, ul := range unlocks {
			if deferred[ul] || ul.Pos() <= lk.Pos() || recvString(ul) != recv {
				continue
			}
			if s.end == ast.Node(body) || ul.Pos() < s.end.Pos() {
				s.end = ul
			}
		}
		spans = append(spans, s)
	}
	analysis.WalkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		what := expensiveCall(pass, call)
		if what == "" {
			return
		}
		for _, s := range spans {
			if call.Pos() > s.start.Pos() && (s.end == ast.Node(body) || call.Pos() < s.end.Pos()) {
				pass.Reportf(call.Pos(), "call to %s while holding %s: expensive work under a lock stalls every waiter (off-lock compute discipline)", what, s.name)
				return
			}
		}
	})
}

// isMutexOp reports whether call is one of the named methods on a
// sync.Mutex or sync.RWMutex (by value or pointer).
func isMutexOp(pass *analysis.Pass, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// recvString renders the lock's receiver expression for matching and
// messages ("s.mu", "f.mu", ...).
func recvString(call *ast.CallExpr) string {
	sel := call.Fun.(*ast.SelectorExpr)
	return exprString(sel.X)
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "lock"
	}
}

// expensiveCall classifies a call as expensive, returning a display
// name, or "" when it is fine to make under a lock.
func expensiveCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	pkg := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if set, ok := expensiveStd[pkg]; ok && set[name] {
		if !isMethod {
			return pkg + "." + name
		}
		// Methods matched inside stdlib packages: only the json
		// Encoder/Decoder streaming pair is expensive.
		if pkg == "encoding/json" && (name == "Encode" || name == "Decode") {
			return "json " + name
		}
		return ""
	}
	if pkg == "os" && isMethod && (name == "Sync" || name == "ReadAt" || name == "WriteAt") {
		return "(*os.File)." + name
	}
	if expensiveNames[name] {
		return name
	}
	return ""
}
