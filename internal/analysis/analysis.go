// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer /
// Pass / Diagnostic surface for the repo's tunevet suite to be written
// in the standard vet-analyzer shape. The build environment pins the
// module to the standard library, so rather than vendoring x/tools the
// repo carries this ~300-line re-implementation; if the dependency
// ever becomes available, the analyzers port by changing one import.
//
// The suite's entry points are cmd/tunevet (the multichecker) and the
// analysistest subpackage (golden-fixture tests). Suppressions use
//
//	//tunevet:ignore <rule>[,<rule>...] -- <rationale>
//
// on the flagged line or the line directly above it. The rationale is
// mandatory: a directive without one does not suppress anything and is
// itself reported as a diagnostic (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a named, documented check over a
// single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is the rule name
	// suppression directives refer to.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report. The result value is unused by this driver
	// (kept for x/tools API shape).
	Run func(pass *Pass) (any, error)
}

// A Pass connects an Analyzer to the single package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Callee resolves a call's target to its *types.Func: a function named
// directly or through a selector (package-qualified or a method). It
// returns nil for builtins, type conversions and calls through function
// values.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// FuncBodies calls visit with the body of every function declaration
// and function literal in the pass's files, nested literals included.
func (p *Pass) FuncBodies(visit func(*ast.BlockStmt)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Body)
			}
			return true
		})
	}
}

// WalkShallow visits every node of body without descending into nested
// function literals, which run at another time than the body itself.
func WalkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// InScope reports whether the package path ends in one of scopes on a
// whole path segment, so fixtures under testdata/src match the way the
// real tree does. An external test unit ("<pkg>_test") is in scope
// with its package.
func InScope(path string, scopes []string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, s := range scopes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding: a position, the rule (analyzer name)
// that produced it, and a message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// RunPackage applies the analyzers to one loaded package and returns
// the surviving diagnostics: suppression directives with a rationale
// filter matching findings, and directives without a rationale are
// appended as findings themselves.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = ApplySuppressions(pkg.Fset, pkg.Files, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
