// Package wirecompat guards the naming of the HTTP wire surface:
// exported structs that carry json tags in the wire packages (tune,
// internal/dbsim, and internal/core, internal/rollout and
// internal/knowledge, whose types reach the wire through tune's aliases)
// must tag every exported field, and every tag name must be snake_case.
// The public API is snake_case throughout, and one stray CamelCase tag
// is a silent wire break for every client.
package wirecompat

import (
	"encoding/json"
	"go/ast"
	"reflect"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wirecompat",
	Doc:  "wire structs must tag every exported field with a snake_case json name",
	Run:  run,
}

// scoped are the packages whose exported structs form the HTTP wire
// surface.
var scoped = []string{"tune", "internal/dbsim", "internal/core", "internal/rollout", "internal/knowledge"}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func run(pass *analysis.Pass) (any, error) {
	// External _test packages do not define wire structs.
	if strings.HasSuffix(pass.Pkg.Path(), "_test") || !analysis.InScope(pass.Pkg.Path(), scoped) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if ok {
				checkTags(pass, ts.Name.Name, st)
			}
			return true
		})
	}
	return nil, nil
}

// checkTags enforces snake_case on every exported field of a struct
// that participates in JSON serialization (has at least one json tag).
func checkTags(pass *analysis.Pass, typeName string, st *ast.StructType) {
	if !hasJSONTag(st) {
		return // field-name matching or internal-only struct: not wire surface
	}
	for _, f := range st.Fields.List {
		tagName, hasTag := jsonTagName(f)
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			if !hasTag {
				pass.Reportf(f.Pos(), "exported field %s.%s has no json tag in a wire struct: the field name would leak onto the wire in CamelCase", typeName, name.Name)
				continue
			}
			if tagName == "-" || tagName == "" {
				continue
			}
			if !snakeCase.MatchString(tagName) {
				pass.Reportf(f.Pos(), "json tag %q on %s.%s is not snake_case: the wire API is snake_case throughout", tagName, typeName, name.Name)
			}
		}
	}
}

func hasJSONTag(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if _, ok := jsonTagName(f); ok {
			return true
		}
	}
	return false
}

func jsonTagName(f *ast.Field) (string, bool) {
	if f.Tag == nil {
		return "", false
	}
	tag, err := strconv(f.Tag.Value)
	if err != nil {
		return "", false
	}
	jt, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(jt, ",")
	return name, true
}

// strconv unquotes a struct tag literal (backquoted or quoted).
func strconv(lit string) (string, error) {
	if len(lit) >= 2 && lit[0] == '`' && lit[len(lit)-1] == '`' {
		return lit[1 : len(lit)-1], nil
	}
	var out string
	err := json.Unmarshal([]byte(lit), &out)
	return out, err
}
