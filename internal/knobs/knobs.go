// Package knobs defines the configuration spaces tuned by the system,
// keyed by DBMS engine: the paper's 40 dynamic MySQL/InnoDB knobs (with
// MySQL-5.7 vendor defaults and DBA-tuned defaults, plus the 5-knob
// case-study subspace of §7.2) and a PostgreSQL 16 space mirroring the
// same reference instance. Spaces carry an Engine tag and are published
// through a name registry (Register/Lookup) so new engines plug in
// without touching callers. Every space provides the unit-hypercube
// encoding used by all tuners: each knob maps to [0,1] (log-scaled where
// the range spans orders of magnitude) and back.
package knobs

import (
	"fmt"
	"math"
)

// Type describes the value domain of a knob.
type Type int

// Knob value domains.
const (
	TypeInt Type = iota
	TypeFloat
	TypeEnum
	TypeBool
)

// Knob describes one tunable configuration parameter.
type Knob struct {
	Name       string
	Type       Type
	Min, Max   float64  // inclusive bounds for int/float (enum: implied)
	Enum       []string // values for TypeEnum (TypeBool uses off/on)
	Default    float64  // engine vendor default (raw value, or enum index)
	DBADefault float64  // experienced-DBA default (raw value, or enum index)
	Log        bool     // log-scale the unit encoding (requires Min > 0)
	Unit       string   // bytes, count, percent, ... (documentation only)
}

// Cardinality returns the number of discrete values for enum/bool knobs
// and 0 for continuous knobs.
func (k *Knob) Cardinality() int {
	switch k.Type {
	case TypeEnum:
		return len(k.Enum)
	case TypeBool:
		return 2
	default:
		return 0
	}
}

// ClampRaw restricts a raw value to the knob's legal domain, rounding
// integer and categorical knobs to the nearest legal value.
func (k *Knob) ClampRaw(v float64) float64 {
	switch k.Type {
	case TypeBool:
		if v >= 0.5 {
			return 1
		}
		return 0
	case TypeEnum:
		n := float64(len(k.Enum) - 1)
		return min(n, max(0, math.Round(v)))
	case TypeInt:
		return math.Round(min(k.Max, max(k.Min, v)))
	default:
		return min(k.Max, max(k.Min, v))
	}
}

// Config is an assignment of raw values to knob names.
type Config map[string]float64

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Space is an ordered collection of knobs with a unit-hypercube encoding.
type Space struct {
	Knobs []Knob
	// Engine tags which DBMS the knobs belong to; the zero value means
	// EngineMySQL (see Engine.OrMySQL).
	Engine Engine
	index  map[string]int
}

// NewSpace builds a MySQL-engine space from a knob list. Knob names must
// be unique.
func NewSpace(ks []Knob) *Space { return NewEngineSpace(EngineMySQL, ks) }

// NewEngineSpace builds a space for the given engine. Knob names must be
// unique.
func NewEngineSpace(e Engine, ks []Knob) *Space {
	s := &Space{Knobs: ks, Engine: e.OrMySQL(), index: make(map[string]int, len(ks))}
	for i, k := range ks {
		if _, dup := s.index[k.Name]; dup {
			panic(fmt.Sprintf("knobs: duplicate knob %q", k.Name))
		}
		if k.Log && k.Min <= 0 {
			panic(fmt.Sprintf("knobs: log-scaled knob %q needs Min > 0", k.Name))
		}
		s.index[k.Name] = i
	}
	return s
}

// Dim returns the number of knobs.
func (s *Space) Dim() int { return len(s.Knobs) }

// Index returns the position of a knob by name, or -1 if absent.
func (s *Space) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Get returns the knob with the given name.
func (s *Space) Get(name string) (*Knob, bool) {
	i, ok := s.index[name]
	if !ok {
		return nil, false
	}
	return &s.Knobs[i], true
}

// Default returns the engine vendor's default configuration.
func (s *Space) Default() Config {
	c := make(Config, len(s.Knobs))
	for _, k := range s.Knobs {
		c[k.Name] = k.Default
	}
	return c
}

// DBADefault returns the experienced-DBA default configuration.
func (s *Space) DBADefault() Config {
	c := make(Config, len(s.Knobs))
	for _, k := range s.Knobs {
		c[k.Name] = k.DBADefault
	}
	return c
}

// logBounds returns log Min and log Max of a log-scaled knob (zeros for
// any other), taken once per knob and handed to unit and raw.
func (k *Knob) logBounds() (lo, hi float64) {
	if !k.Log {
		return 0, 0
	}
	return math.Log(k.Min), math.Log(k.Max)
}

// unit maps one raw knob value into [0,1]; lo and hi are logBounds().
func (k *Knob) unit(raw, lo, hi float64) float64 {
	switch k.Type {
	case TypeBool:
		return k.ClampRaw(raw)
	case TypeEnum:
		n := float64(len(k.Enum) - 1)
		if n == 0 {
			return 0
		}
		return k.ClampRaw(raw) / n
	default:
		if k.Max == k.Min {
			return 0
		}
		v := min(k.Max, max(k.Min, raw))
		if k.Log {
			return (math.Log(v) - lo) / (hi - lo)
		}
		return (v - k.Min) / (k.Max - k.Min)
	}
}

// raw maps one unit value in [0,1] back to the knob's raw domain; lo and
// hi are logBounds().
func (k *Knob) raw(u, lo, hi float64) float64 {
	u = min(1, max(0, u))
	switch k.Type {
	case TypeBool:
		return math.Round(u)
	case TypeEnum:
		return math.Round(u * float64(len(k.Enum)-1))
	default:
		var v float64
		if k.Log {
			v = math.Exp(lo + u*(hi-lo))
		} else {
			v = k.Min + u*(k.Max-k.Min)
		}
		return k.ClampRaw(v)
	}
}

// Encode maps a configuration to the unit hypercube [0,1]^Dim in knob
// order. Missing knobs take their vendor default.
func (s *Space) Encode(c Config) []float64 {
	u := make([]float64, len(s.Knobs))
	for i := range s.Knobs {
		k := &s.Knobs[i]
		v, ok := c[k.Name]
		if !ok {
			v = k.Default
		}
		lo, hi := k.logBounds()
		u[i] = k.unit(v, lo, hi)
	}
	return u
}

// Decode maps a unit-hypercube point back to a raw configuration.
func (s *Space) Decode(u []float64) Config {
	if len(u) != len(s.Knobs) {
		panic(fmt.Sprintf("knobs: Decode got %d dims, want %d", len(u), len(s.Knobs)))
	}
	c := make(Config, len(s.Knobs))
	for i := range s.Knobs {
		k := &s.Knobs[i]
		lo, hi := k.logBounds()
		c[k.Name] = k.raw(u[i], lo, hi)
	}
	return c
}

// Quantize snaps a unit point to the nearest representable configuration:
// Encode(Decode(u)), one coordinate at a time, without the Config between
// them. Tuners use this so that candidate distances reflect actually
// distinct configurations.
func (s *Space) Quantize(u []float64) []float64 { return s.QuantizeAll([][]float64{u})[0] }

// QuantizeAll is Quantize of every point, in new slices. Each knob's log
// bounds are taken once per call, and since a coordinate's result
// depends on its bits alone, a coordinate whose bits repeat the previous
// point's reuses its result: candidates drawn around one center differ
// from it in a few coordinates.
func (s *Space) QuantizeAll(us [][]float64) [][]float64 {
	type memo struct {
		lo, hi, q float64
		in        uint64
	}
	d := len(s.Knobs)
	ms := make([]memo, d)
	for i := range ms {
		ms[i].lo, ms[i].hi = s.Knobs[i].logBounds()
	}
	out := make([][]float64, len(us))
	for j, u := range us {
		if len(u) != d {
			panic(fmt.Sprintf("knobs: Quantize got %d dims, want %d", len(u), d))
		}
		q := make([]float64, d)
		for i, v := range u {
			m := &ms[i]
			if b := math.Float64bits(v); j == 0 || b != m.in {
				k := &s.Knobs[i]
				m.in, m.q = b, k.unit(k.raw(v, m.lo, m.hi), m.lo, m.hi)
			}
			q[i] = m.q
		}
		out[j] = q
	}
	return out
}

// Subspace returns a new Space containing only the named knobs, in the
// given order, preserving the engine tag. It panics if a name is
// unknown.
func (s *Space) Subspace(names ...string) *Space {
	ks := make([]Knob, 0, len(names))
	for _, n := range names {
		k, ok := s.Get(n)
		if !ok {
			panic(fmt.Sprintf("knobs: unknown knob %q", n))
		}
		ks = append(ks, *k)
	}
	return NewEngineSpace(s.Engine, ks)
}
