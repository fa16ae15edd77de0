package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, type-checked package unit. Test files
// are included: the in-package unit is checked together with its
// TestGoFiles (a superset of the export API, safe for importers), and
// external _test packages load as their own unit with path
// "<pkg>_test".
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	Requested bool // matched the caller's patterns (vs loaded as a dependency)
}

// listing mirrors the subset of `go list -json` tunevet consumes.
type listing struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// Load resolves the patterns with `go list`, then parses and
// type-checks every matched package (plus any module-internal
// dependencies needed to check them) in dependency order through one
// Checker, using only the standard library. No network, no export
// data, no x/tools.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modPath, err := goList(dir, []string{"-m"})
	if err != nil {
		return nil, fmt.Errorf("resolving module path: %w", err)
	}
	module := strings.TrimSpace(string(modPath))

	listings := map[string]*listing{}
	requested := map[string]bool{}
	if err := listInto(dir, patterns, listings); err != nil {
		return nil, err
	}
	for path := range listings {
		requested[path] = true
	}
	// Pull in module-internal dependencies of the requested set that the
	// patterns did not match, so they can be type-checked first. (With
	// the usual ./... pattern this loop finds nothing.)
	for {
		var missing []string
		for _, l := range listings {
			for _, imp := range allImports(l) {
				if inModule(module, imp) && listings[imp] == nil {
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) == 0 {
			break
		}
		if err := listInto(dir, missing, listings); err != nil {
			return nil, err
		}
	}

	ck := NewChecker(fset, module)

	var order []string
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		l := listings[path]
		if l == nil {
			return
		}
		for _, imp := range l.Imports {
			if inModule(module, imp) {
				visit(imp)
			}
		}
		for _, imp := range l.TestImports {
			if inModule(module, imp) {
				visit(imp)
			}
		}
		order = append(order, path)
	}
	for path := range listings {
		visit(path)
	}

	var pkgs []*Package
	for _, path := range order {
		l := listings[path]
		files := append(append([]string(nil), l.GoFiles...), l.TestGoFiles...)
		if len(files) > 0 {
			pkg, err := ck.Check(path, l.Dir, files)
			if err != nil {
				return nil, err
			}
			pkg.Requested = requested[path]
			pkgs = append(pkgs, pkg)
		}
	}
	// External _test packages go last: they can import any base unit
	// (their XTestImports are not part of the base topo order, which is
	// what keeps import cycles through tests legal in Go), and nothing
	// can import them back.
	for _, path := range order {
		l := listings[path]
		if len(l.XTestGoFiles) == 0 {
			continue
		}
		pkg, err := ck.Check(path+"_test", l.Dir, l.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		pkg.Requested = requested[path]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// A Checker parses and type-checks package units in the order given:
// a unit's imports resolve to the units checked before it, and anything
// else to the compiler's source importer rooted at GOROOT. Load drives
// one over `go list` output and analysistest over fixture directories,
// so the fixture tests exercise the type-check path tunevet runs.
type Checker struct {
	fset    *token.FileSet
	module  string // module path; "" when no import is module-internal
	checked map[string]*types.Package
	std     types.ImporterFrom
}

// NewChecker returns a Checker whose positions go to fset.
func NewChecker(fset *token.FileSet, module string) *Checker {
	// The source importer honors build.Default; the repo is pure Go, so
	// disabling cgo keeps stdlib type-checking self-contained.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &Checker{fset: fset, module: module, checked: map[string]*types.Package{}, std: std}
}

// Check parses and type-checks the named files of dir as the unit path
// and records it for later importers.
func (c *Checker) Check(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	tpkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	c.checked[path] = tpkg
	return &Package{Path: path, Dir: dir, Fset: c.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import and ImportFrom make a Checker the importer of the units it checks.
func (c *Checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *Checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := c.checked[path]; p != nil {
		return p, nil
	}
	if inModule(c.module, path) {
		return nil, fmt.Errorf("module package %s imported before it was type-checked (loader ordering bug)", path)
	}
	return c.std.ImportFrom(path, dir, mode)
}

func inModule(module, path string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

func allImports(l *listing) []string {
	out := append(append([]string(nil), l.Imports...), l.TestImports...)
	return append(out, l.XTestImports...)
}

// listInto runs `go list -json` on the args and merges the result.
func listInto(dir string, args []string, into map[string]*listing) error {
	out, err := goList(dir, append([]string{"-json"}, args...))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var l listing
		if err := dec.Decode(&l); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("parsing go list output: %w", err)
		}
		into[l.ImportPath] = &l
	}
}

func goList(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
