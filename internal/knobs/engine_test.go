package knobs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegistryLookup(t *testing.T) {
	for name, want := range map[string]struct {
		engine Engine
		dim    int
	}{
		"mysql57": {EngineMySQL, 40},
		"case5":   {EngineMySQL, 5},
		"pg16":    {EnginePostgres, 31},
		"pg-case": {EnginePostgres, 5},
	} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Engine != want.engine || s.Dim() != want.dim {
			t.Fatalf("Lookup(%q) = engine %q dim %d, want %q / %d", name, s.Engine, s.Dim(), want.engine, want.dim)
		}
	}
	for _, name := range []string{"oracle23", "full"} {
		if _, err := Lookup(name); err == nil {
			t.Fatalf("Lookup(%q): unknown space should error", name)
		}
	}
}

func TestRegistryReturnsFreshSpaces(t *testing.T) {
	a, _ := Lookup("pg16")
	b, _ := Lookup("pg16")
	if a == b {
		t.Fatal("Lookup must build a fresh Space per call")
	}
}

func TestFullSpacePerEngine(t *testing.T) {
	if FullSpace(EngineMySQL).Dim() != 40 || FullSpace("").Dim() != 40 {
		t.Fatal("MySQL full space should be the 40-knob MySQL57")
	}
	if FullSpace(EnginePostgres).Dim() != 31 {
		t.Fatal("Postgres full space should be the 31-knob Postgres16")
	}
}

func TestPostgresDefaultsWithinRange(t *testing.T) {
	s := Postgres16()
	for _, k := range s.Knobs {
		for _, v := range []float64{k.Default, k.DBADefault} {
			if k.ClampRaw(v) != v {
				t.Fatalf("knob %s default %v outside legal domain", k.Name, v)
			}
		}
	}
}

func TestPostgresEncodeDecodeRoundTrip(t *testing.T) {
	s := Postgres16()
	for _, cfg := range []Config{s.Default(), s.DBADefault()} {
		u := s.Encode(cfg)
		for i, x := range u {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("encode out of unit range at %s: %v", s.Knobs[i].Name, x)
			}
		}
		back := s.Decode(u)
		for name, v := range cfg {
			if math.Abs(back[name]-v) > math.Max(1, math.Abs(v))*1e-6 {
				t.Fatalf("round-trip changed %s: %v -> %v", name, v, back[name])
			}
		}
	}
}

// Property: Postgres16 decode always lands in-domain and re-encodes into
// the unit cube (the same guarantee the MySQL space is pinned to).
func TestQuickPostgresEncodeDecodeDomain(t *testing.T) {
	s := Postgres16()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = rng.Float64()*2 - 0.5 // include out-of-range values
		}
		cfg := s.Decode(u)
		for _, k := range s.Knobs {
			if k.ClampRaw(cfg[k.Name]) != cfg[k.Name] {
				return false
			}
		}
		for _, x := range s.Encode(cfg) {
			if x < -1e-9 || x > 1+1e-9 || math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPGCase5Subspace(t *testing.T) {
	s := PGCase5()
	if s.Dim() != 5 {
		t.Fatalf("pg-case dim = %d", s.Dim())
	}
	if s.Engine != EnginePostgres {
		t.Fatalf("Subspace dropped the engine tag: %q", s.Engine)
	}
	if s.Index("shared_buffers") != 0 || s.Index("work_mem") != 1 {
		t.Fatal("order not preserved")
	}
	if s.Index("innodb_buffer_pool_size") != -1 {
		t.Fatal("MySQL knob must not appear in a Postgres subspace")
	}
	full := Postgres16()
	for _, k := range s.Knobs {
		fk, ok := full.Get(k.Name)
		if !ok || fk.Min != k.Min || fk.Max != k.Max || fk.Default != k.Default {
			t.Fatalf("subspace knob %s diverged from the full space", k.Name)
		}
	}
}

func TestPostgresSharedBuffersDefaults(t *testing.T) {
	s := Postgres16()
	def := s.Default()
	dba := s.DBADefault()
	// postgresql.conf ships 128 MB shared_buffers; the DBA guidance for a
	// dedicated 16 GB box is ~25% of RAM.
	if def["shared_buffers"] != 128*MiB {
		t.Fatalf("vendor default shared_buffers = %v", def["shared_buffers"])
	}
	if dba["shared_buffers"] != 4*GiB {
		t.Fatalf("dba default shared_buffers = %v", dba["shared_buffers"])
	}
	if dba["random_page_cost"] != 1.1 {
		t.Fatalf("dba random_page_cost = %v, want SSD-tuned 1.1", dba["random_page_cost"])
	}
}
