package knobs

import (
	"fmt"
	"sort"
	"sync"
)

// Engine identifies the DBMS whose knobs a Space describes. The engine
// tag drives every engine-specific layer downstream: the simulator picks
// its behavior model from it, the white-box rule engine selects its rule
// set from it, and the public tune API reports it per session.
type Engine string

// Supported engines. The zero value is treated as EngineMySQL everywhere
// so pre-engine spaces (and serialized states) keep their old meaning.
const (
	EngineMySQL    Engine = "mysql"
	EnginePostgres Engine = "postgres"
)

// OrMySQL normalizes the zero value to EngineMySQL.
func (e Engine) OrMySQL() Engine {
	if e == "" {
		return EngineMySQL
	}
	return e
}

var (
	spacesMu sync.RWMutex
	spaces   = map[string]func() *Space{}
)

// Register adds a named knob space to the registry, replacing any
// previous registration. The builder must return a fresh Space per call:
// callers mutate rule-relaxation and subspace state around spaces, so
// they must never share one instance. Safe for concurrent use.
func Register(name string, build func() *Space) {
	spacesMu.Lock()
	defer spacesMu.Unlock()
	spaces[name] = build
}

// Lookup builds the named knob space, or errors listing the known names.
func Lookup(name string) (*Space, error) {
	spacesMu.RLock()
	build, ok := spaces[name]
	spacesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("knobs: unknown space %q (have %v)", name, SpaceNames())
	}
	return build(), nil
}

// SpaceNames returns the registered space names, sorted.
func SpaceNames() []string {
	spacesMu.RLock()
	defer spacesMu.RUnlock()
	out := make([]string, 0, len(spaces))
	for name := range spaces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FullSpace returns the engine's complete knob space: the space whose
// defaults supply values for knobs outside a tuned subspace.
func FullSpace(e Engine) *Space {
	switch e.OrMySQL() {
	case EnginePostgres:
		return Postgres16()
	default:
		return MySQL57()
	}
}

// The built-in spaces.
func init() {
	Register("mysql57", MySQL57)
	Register("case5", CaseStudy5)
	Register("pg16", Postgres16)
	Register("pg-case", PGCase5)
}
