// Package determinism bans nondeterminism sources in replay-affecting
// packages. The repo's headline guarantee — a restored session is
// bitwise-identical to one that never restarted — holds only if every
// computation that feeds the event log, a snapshot, or the wire is a
// pure function of logged state. Three classes of stray
// nondeterminism can silently break it:
//
//   - wall-clock reads (time.Now / time.Since / time.Until): replay
//     runs at a different time than the original execution;
//   - the package-level math/rand generators, which are globally and
//     (since Go 1.20) randomly seeded — sessions must draw from their
//     own seeded *rand.Rand carried in the snapshot;
//   - map iteration whose order escapes into a slice or an encoder:
//     Go randomizes map range order per run, so anything built from it
//     must be sorted before it can feed an event log or wire output.
//
// The check applies only to the replay-affecting packages
// (internal/core, internal/rollout, internal/wal, internal/knowledge,
// and the tune event/snapshot layer) and skips _test.go files.
// Legitimate uses — e.g. the operator-facing Timings metadata in
// internal/core/onlinetune.go, which never enters the event log — are
// annotated with //tunevet:ignore determinism -- <rationale>.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "ban wall-clock reads, global math/rand, and escaping map iteration order in replay-affecting packages",
	Run:  run,
}

// restricted are the replay-affecting package path suffixes the
// analyzer guards (see analysis.InScope).
var restricted = []string{
	"internal/core",
	"internal/rollout",
	"internal/wal",
	"internal/knowledge",
	"tune",
}

// bannedTime are the wall-clock reads; the rest of package time
// (durations, timers for serving-side scheduling) stays allowed.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the deterministic constructors; everything else at
// package level in math/rand (Intn, Float64, Shuffle, ...) draws from
// the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.InScope(pass.Pkg.Path(), restricted) {
		return nil, nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, body, n)
		}
		return true
	})
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. *rand.Rand.Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(), "wall-clock read time.%s in a replay-affecting package: replayed state must not depend on real time", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(), "package-level rand.%s draws from the global source: use the session's seeded *rand.Rand", fn.Name())
		}
	}
}

// checkMapRange flags a range over a map whose iteration order can
// escape: the loop body appends to a slice declared outside the loop
// that is never subsequently sorted in the same function, or encodes /
// writes output directly from inside the loop.
func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEncodeCall(pass, n) {
				pass.Reportf(n.Pos(), "encoding inside map iteration: range order is randomized, so output built here is nondeterministic")
				return true
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				target, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Uses[target]
				if obj == nil {
					obj = pass.TypesInfo.Defs[target]
				}
				if obj == nil || obj.Pos() == 0 {
					continue
				}
				if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
					continue // loop-local accumulator: order can't escape the iteration
				}
				if !sortedAfter(pass, funcBody, rng, obj) {
					pass.Reportf(n.Pos(), "append to %q under map iteration without a later sort: slice order is randomized per run", target.Name)
				}
			}
		}
		return true
	})
}

// sortedAfter reports whether, after the range statement, the function
// calls into package sort or slices with obj among the arguments —
// the canonical collect-then-sort pattern that restores determinism.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentions(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isEncodeCall matches calls that serialize or write output:
// encoding/json Marshal*/Encode, fmt.Fprint*, and Write*/Encode
// methods on anything.
func isEncodeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "encoding/json":
			if strings.HasPrefix(name, "Marshal") || name == "Encode" {
				return true
			}
		case "fmt":
			if strings.HasPrefix(name, "Fprint") {
				return true
			}
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name == "Encode" || strings.HasPrefix(name, "Write") {
			return true
		}
	}
	return false
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "append"
}
