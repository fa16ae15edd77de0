package knobs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMySQL57Has40Knobs(t *testing.T) {
	s := MySQL57()
	if s.Dim() != 40 {
		t.Fatalf("MySQL57 has %d knobs, want 40 (the paper tunes 40 dynamic knobs)", s.Dim())
	}
	seen := map[string]bool{}
	for _, k := range s.Knobs {
		if seen[k.Name] {
			t.Fatalf("duplicate knob %s", k.Name)
		}
		seen[k.Name] = true
	}
}

func TestDefaultsWithinRange(t *testing.T) {
	s := MySQL57()
	for _, k := range s.Knobs {
		for _, v := range []float64{k.Default, k.DBADefault} {
			if k.ClampRaw(v) != v {
				t.Fatalf("knob %s default %v outside legal domain", k.Name, v)
			}
		}
	}
}

func TestEncodeDecodeDefaults(t *testing.T) {
	s := MySQL57()
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

func TestBufferPoolDefaults(t *testing.T) {
	s := MySQL57()
	def := s.Default()
	dba := s.DBADefault()
	// Paper §7.3.4: MySQL default buffer pool is 128 MB, DBA default 13 GB.
	if def["innodb_buffer_pool_size"] != 128*MiB {
		t.Fatalf("mysql default buffer pool = %v", def["innodb_buffer_pool_size"])
	}
	if dba["innodb_buffer_pool_size"] != 13*GiB {
		t.Fatalf("dba default buffer pool = %v", dba["innodb_buffer_pool_size"])
	}
}

func TestEnumBoolEncoding(t *testing.T) {
	s := MySQL57()
	k, ok := s.Get("innodb_flush_log_at_trx_commit")
	if !ok || k.Cardinality() != 3 {
		t.Fatalf("flush_log knob wrong: %+v", k)
	}
	if k.unit(0, 0, 0) != 0 || k.unit(2, 0, 0) != 1 || k.unit(1, 0, 0) != 0.5 {
		t.Fatalf("enum unit encoding wrong: %v %v %v", k.unit(0, 0, 0), k.unit(1, 0, 0), k.unit(2, 0, 0))
	}
	b, _ := s.Get("innodb_doublewrite")
	if b.Cardinality() != 2 || b.raw(0.7, 0, 0) != 1 || b.raw(0.2, 0, 0) != 0 {
		t.Fatal("bool decode wrong")
	}
}

func TestLogScaledKnobResolution(t *testing.T) {
	s := MySQL57()
	k, _ := s.Get("innodb_buffer_pool_size")
	// Midpoint of the log scale should be the geometric mean, not the
	// arithmetic mean.
	lo, hi := k.logBounds()
	mid := k.raw(0.5, lo, hi)
	geo := math.Sqrt(k.Min * k.Max)
	if math.Abs(mid-geo)/geo > 0.01 {
		t.Fatalf("log midpoint %v, want ~%v", mid, geo)
	}
}

func TestSubspace(t *testing.T) {
	s := CaseStudy5()
	if s.Dim() != 5 {
		t.Fatalf("case study dim = %d", s.Dim())
	}
	if s.Index("innodb_buffer_pool_size") != 0 {
		t.Fatal("order not preserved")
	}
	if s.Index("nonexistent") != -1 {
		t.Fatal("missing knob should index -1")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	s := MySQL57()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = rng.Float64()
		}
		q1 := s.Quantize(u)
		q2 := s.Quantize(q1)
		for i := range q1 {
			if math.Abs(q1[i]-q2[i]) > 1e-9 {
				t.Fatalf("quantize not idempotent at %s: %v vs %v", s.Knobs[i].Name, q1[i], q2[i])
			}
		}
	}
}

// Quantize is Encode(Decode(u)) bit for bit, for every registered space:
// random points, points outside the cube, NaN, and points that are
// already representable.
func TestQuantizeBitIdenticalToEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range SpaceNames() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		check := func(u []float64) []float64 {
			t.Helper()
			got, want := s.Quantize(u), s.Encode(s.Decode(u))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s knob %s at %v: Quantize %v, Encode(Decode) %v", name, s.Knobs[i].Name, u[i], got[i], want[i])
				}
			}
			return got
		}
		for trial := 0; trial < 50; trial++ {
			u := make([]float64, s.Dim())
			for i := range u {
				u[i] = rng.Float64()
				switch rng.Intn(8) {
				case 0:
					u[i] = -0.5 - rng.Float64()
				case 1:
					u[i] = 1.5 + rng.Float64()
				case 2:
					u[i] = float64(rng.Intn(2))
				case 3:
					u[i] = math.NaN()
				}
			}
			check(check(u)) // the second pass quantizes a representable point
		}
		check(s.Encode(s.Default()))
		check(s.Encode(s.DBADefault()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize accepted a point of the wrong dimension")
		}
	}()
	MySQL57().Quantize([]float64{0.5})
}

// Property: QuantizeAll is per-point Quantize, and Encode(Decode(u)), bit
// for bit, for every registered space, over batches drawn the way a
// hypercube region draws them — a center and candidates that perturb at
// most 8 of its coordinates — with repeated, -0, NaN, out-of-range,
// one-ulp-apart and already-quantized coordinates mixed in. A point of the wrong dimension
// anywhere in a batch panics.
func TestQuantizeAllBitIdenticalToQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return -0.5 - rng.Float64()
		case 1:
			return 1.5 + rng.Float64()
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return math.NaN()
		case 4:
			return float64(rng.Intn(2))
		default:
			return rng.Float64()
		}
	}
	for _, name := range SpaceNames() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			center := make([]float64, s.Dim())
			for i := range center {
				center[i] = coord()
			}
			if trial%2 == 1 {
				center = s.Quantize(center)
			}
			batch := [][]float64{center}
			for len(batch) < 40 {
				p := append([]float64(nil), center...)
				for k := rng.Intn(min(8, s.Dim()) + 1); k > 0; k-- {
					i := rng.Intn(len(p))
					if p[i] = coord(); rng.Intn(4) == 0 {
						p[i] = math.Nextafter(center[i], 2) // one ulp from the center's
					}
				}
				if rng.Intn(4) == 0 {
					p = s.Quantize(p)
				}
				batch = append(batch, p)
				if rng.Intn(8) == 0 {
					batch = append(batch, p) // a repeated point
				}
			}
			got := s.QuantizeAll(batch)
			for j, u := range batch {
				if want := s.Quantize(u); !bitsEqual(got[j], want) || !bitsEqual(want, s.Encode(s.Decode(u))) {
					t.Fatalf("%s trial %d point %d: QuantizeAll %v, Quantize %v, Encode(Decode) %v", name, trial, j, got[j], want, s.Encode(s.Decode(u)))
				}
			}
		}
	}
	s := MySQL57()
	ok := make([]float64, s.Dim())
	defer func() {
		if recover() == nil {
			t.Fatal("QuantizeAll accepted a point of the wrong dimension")
		}
	}()
	s.QuantizeAll([][]float64{ok, ok, {0.5}, ok})
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A knob pinned to one value encodes to 0 on either scale; the log scale
// used to divide by log Max − log Min = 0.
func TestUnitOfDegenerateRange(t *testing.T) {
	s := NewSpace([]Knob{
		{Name: "pinned_log", Type: TypeInt, Min: 8, Max: 8, Default: 8, DBADefault: 8, Log: true},
		{Name: "pinned_lin", Type: TypeFloat, Min: 0.5, Max: 0.5, Default: 0.5, DBADefault: 0.5},
	})
	for _, u := range [][]float64{s.Encode(s.Default()), s.Quantize([]float64{0.3, 0.9})} {
		if u[0] != 0 || u[1] != 0 {
			t.Fatalf("a one-value knob encodes to %v, want 0", u)
		}
	}
	if c := s.Decode([]float64{0.7, 0.7}); c["pinned_log"] != 8 || c["pinned_lin"] != 0.5 {
		t.Fatalf("a one-value knob decodes to %v", c)
	}
}

func TestConfigClone(t *testing.T) {
	c := Config{"a": 1}
	d := c.Clone()
	d["a"] = 2
	if c["a"] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestDecodeRespectsBounds(t *testing.T) {
	s := MySQL57()
	low := make([]float64, s.Dim())
	high := make([]float64, s.Dim())
	for i := range high {
		low[i] = -3 // out-of-range unit values must clamp
		high[i] = 7
	}
	cl := s.Decode(low)
	ch := s.Decode(high)
	for _, k := range s.Knobs {
		if k.ClampRaw(cl[k.Name]) != cl[k.Name] || k.ClampRaw(ch[k.Name]) != ch[k.Name] {
			t.Fatalf("decode out of domain for %s: %v / %v", k.Name, cl[k.Name], ch[k.Name])
		}
	}
}

// Property: Decode always produces in-domain raw values, and Encode maps
// them back into [0,1].
func TestQuickEncodeDecodeDomain(t *testing.T) {
	s := MySQL57()
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

// Property: integer knobs decode to integers.
func TestQuickIntKnobsAreIntegers(t *testing.T) {
	s := MySQL57()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = rng.Float64()
		}
		cfg := s.Decode(u)
		for _, k := range s.Knobs {
			if k.Type == TypeInt && cfg[k.Name] != math.Round(cfg[k.Name]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refClampRaw, refUnit and refRaw are ClampRaw, unit and raw as they
// were written with math.Min and math.Max, kept as the reference the
// builtin min and max must match bit for bit.
func refClampRaw(k *Knob, v float64) float64 {
	switch k.Type {
	case TypeBool:
		if v >= 0.5 {
			return 1
		}
		return 0
	case TypeEnum:
		n := float64(len(k.Enum) - 1)
		return math.Min(n, math.Max(0, math.Round(v)))
	case TypeInt:
		return math.Round(math.Min(k.Max, math.Max(k.Min, v)))
	default:
		return math.Min(k.Max, math.Max(k.Min, v))
	}
}

func refUnit(k *Knob, raw, lo, hi float64) float64 {
	switch k.Type {
	case TypeBool:
		return refClampRaw(k, raw)
	case TypeEnum:
		n := float64(len(k.Enum) - 1)
		if n == 0 {
			return 0
		}
		return refClampRaw(k, raw) / n
	default:
		if k.Max == k.Min {
			return 0
		}
		v := math.Min(k.Max, math.Max(k.Min, raw))
		if k.Log {
			return (math.Log(v) - lo) / (hi - lo)
		}
		return (v - k.Min) / (k.Max - k.Min)
	}
}

func refRaw(k *Knob, u, lo, hi float64) float64 {
	u = math.Min(1, math.Max(0, u))
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
		return refClampRaw(k, v)
	}
}

// ClampRaw and Quantize equal the math.Min/math.Max reference bit for
// bit on the values where the two could part: −0 against +0, the
// infinities and NaN, at and inside the bounds, for every knob type and
// for bounds that straddle or end at zero. A NaN result is compared as
// NaN only: on amd64 the builtin min and max return a NaN whose payload
// ORs in the other operand's bits (min(100, NaN) is 0x7ff9000000000001,
// math.Min's 0x7ff8000000000001), which no arithmetic or encoding here
// tells apart.
func TestClampAndQuantizeMatchMathMinMax(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	s := NewSpace([]Knob{
		{Name: "int", Type: TypeInt, Min: 0, Max: 100, Default: 1},
		{Name: "int_log", Type: TypeInt, Min: 1, Max: 1 << 20, Default: 1, Log: true},
		{Name: "float", Type: TypeFloat, Min: 0, Max: 1},
		{Name: "float_neg", Type: TypeFloat, Min: -1, Max: 0},
		{Name: "float_log", Type: TypeFloat, Min: 0.5, Max: 8, Default: 1, Log: true},
		{Name: "pinned", Type: TypeFloat, Min: 0, Max: 0},
		{Name: "enum", Type: TypeEnum, Enum: []string{"a", "b", "c"}},
		{Name: "enum_one", Type: TypeEnum, Enum: []string{"a"}},
		{Name: "bool", Type: TypeBool},
	})
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{negZero, 0, 1, math.Inf(1), math.Inf(-1), math.NaN(), 0.5, -1, 2} {
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = v
		}
		q := s.Quantize(u)
		for i := range s.Knobs {
			k := &s.Knobs[i]
			if got, want := k.ClampRaw(v), refClampRaw(k, v); !same(got, want) {
				t.Errorf("%s: ClampRaw(%v) = %v, want %v", k.Name, v, got, want)
			}
			lo, hi := k.logBounds()
			if want := refUnit(k, refRaw(k, v, lo, hi), lo, hi); !same(q[i], want) {
				t.Errorf("%s: Quantize(%v) = %v, want %v", k.Name, v, q[i], want)
			}
		}
	}
}
