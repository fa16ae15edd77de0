// Package fsyncrename machine-checks the crash-ordering contract of
// the repo's atomic checkpoint writes (tune/persist.go, internal/wal,
// tune/knowledge.go): data reaches a temp file, the temp file is
// fsynced, and only then does os.Rename publish it. A rename that is
// not dominated by a sync can publish torn contents after a power
// failure — exactly the corruption the tmp→fsync→rename protocol
// exists to prevent.
//
// Two rules:
//
//  1. every os.Rename call must be preceded, earlier in the same
//     function, by a sync-like call (an *os.File Sync, or a call whose
//     name is Sync / SyncFile / syncNow / Commit — the repo's durable
//     flush entry points);
//  2. the error of a sync-like call must not be discarded (a bare
//     expression statement or an assignment to blank): an fsync whose
//     failure goes unobserved is durability theater.
//
// The analysis is flow-insensitive within a function (a sync behind an
// `if` still counts) and does not follow calls; helpers that sync on
// the caller's behalf sit in the same function in this repo's
// persistence paths, which is what makes the local rule sound enough
// to be blocking.
package fsyncrename

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fsyncrename",
	Doc:  "os.Rename onto a checkpoint path must be dominated by a Sync of the temp file, and sync errors must be checked",
	Run:  run,
}

// syncNames are the repo's durable-flush entry points by name
// (receiver-independent): wal.Log.Commit and SyncFile, the unexported
// syncNow, and any plain Sync method (os.File and wrappers).
var syncNames = map[string]bool{"Sync": true, "SyncFile": true, "syncNow": true, "Commit": true}

func run(pass *analysis.Pass) (any, error) {
	pass.FuncBodies(func(body *ast.BlockStmt) { checkFunc(pass, body) })
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// First pass: positions of sync-like calls in this function (not
	// descending into nested function literals, which run at another
	// time).
	var syncs []ast.Expr
	analysis.WalkShallow(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isSyncCall(pass, call) {
			syncs = append(syncs, call)
		}
	})
	analysis.WalkShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isOSRename(pass, n) {
				return
			}
			dominated := false
			for _, s := range syncs {
				if s.Pos() < n.Pos() {
					dominated = true
					break
				}
			}
			if !dominated {
				pass.Reportf(n.Pos(), "os.Rename without a preceding Sync in this function: a crash can publish torn contents (crash-ordering contract is tmp, then fsync, then rename)")
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSyncCall(pass, call) {
				pass.Reportf(n.Pos(), "%s error discarded: an unobserved fsync failure silently breaks durability", callName(pass, call))
			}
		case *ast.AssignStmt:
			if len(n.Lhs) >= 1 && len(n.Rhs) == 1 && allBlank(n.Lhs) {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isSyncCall(pass, call) {
					pass.Reportf(n.Pos(), "%s error discarded: an unobserved fsync failure silently breaks durability", callName(pass, call))
				}
			}
		}
	})
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

func isOSRename(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "Rename"
}

// isSyncCall matches durable-flush calls: *os.File Sync, or any call
// whose bare name is in syncNames and which returns an error.
func isSyncCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	if fn == nil || !syncNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := pass.Callee(call); fn != nil {
		return fn.Name()
	}
	return "sync"
}
