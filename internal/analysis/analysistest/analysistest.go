// Package analysistest runs an analyzer over golden fixture packages
// under testdata/src and checks its diagnostics against `// want`
// comments — a dependency-free miniature of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line expecting diagnostics carries one or more quoted
// regular expressions:
//
//	time.Now() // want `wall-clock read`
//
// Every reported diagnostic must match a want on its line, and every
// want must be matched, or the test fails. Suppression directives are
// applied exactly as cmd/tunevet applies them, so fixtures can also
// pin the suppression contract itself (including the rule that a
// directive without a rationale is a diagnostic).
package analysistest

import (
	"go/ast"
	"go/build"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// Run type-checks each fixture package rooted at testdata/src/<path>
// (in order, so later fixtures may import earlier ones) through the
// analysis.Checker tunevet's loader uses, followed by its external
// _test unit if the directory has one. It applies the analyzer plus the
// shared suppression filter to each unit and compares diagnostics
// against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ck := analysis.NewChecker(fset, "")
	for _, path := range pkgPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("listing fixture %s: %v", path, err)
		}
		units := [][]string{append(bp.GoFiles, bp.TestGoFiles...), bp.XTestGoFiles}
		for i, unit := range []string{path, path + "_test"} {
			if len(units[i]) == 0 {
				continue
			}
			pkg, err := ck.Check(unit, dir, units[i])
			if err != nil {
				t.Fatalf("loading fixture %s: %v", unit, err)
			}
			diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s on %s: %v", a.Name, unit, err)
			}
			check(t, fset, pkg.Files, diags)
		}
	}
}

var wantRE = regexp.MustCompile("// want((?: +(?:`[^`]*`|\"[^\"]*\"))+)")
var wantArgRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// check compares diagnostics to the want comments in files.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllString(m[1], -1) {
					re, err := regexp.Compile(arg[1 : len(arg)-1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, arg, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.re)
		}
	}
}
