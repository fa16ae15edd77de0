// Package errsentinel flags error identity checks done by string
// matching — strings.Contains(err.Error(), ...), or comparing
// err.Error() with == / != — where the sentinel machinery
// (errors.Is / errors.As, or a typed error) is the correct tool. The
// repo's wire layer maps tune.ErrNotFound / ErrExists / ErrInvalid /
// ErrDurability to HTTP statuses via errors.Is precisely because
// message text is not API; a string match silently breaks the first
// time a message is reworded or wrapped with extra context.
package errsentinel

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errsentinel",
	Doc:  "flag err.Error() string matching where sentinel errors should be compared with errors.Is / errors.As",
	Run:  run,
}

// matchFuncs are the strings-package predicates whose use on an error
// message constitutes string matching.
var matchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true, "EqualFold": true, "Index": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkStringsCall(pass, n)
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkStringsCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !matchFuncs[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if isErrorMessage(pass, arg) {
			pass.Reportf(call.Pos(), "matching err.Error() with strings.%s: compare sentinel errors with errors.Is (or a typed error with errors.As) — message text is not API", fn.Name())
			return
		}
	}
}

func checkComparison(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if isErrorMessage(pass, bin.X) || isErrorMessage(pass, bin.Y) {
		pass.Reportf(bin.Pos(), "comparing err.Error() with %s: compare sentinel errors with errors.Is — message text is not API", bin.Op)
	}
}

// isErrorMessage reports whether e is a call x.Error() with x of type
// error.
func isErrorMessage(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
