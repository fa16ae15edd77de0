package mathx

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// draw consumes one value of a mixed kind from r and returns it as a
// float, so streams of the four kinds compare element by element.
func draw(r *rand.Rand, i int) float64 {
	switch i % 4 {
	case 0:
		return float64(r.Intn(7 + i))
	case 1:
		return r.Float64()
	case 2:
		return r.NormFloat64()
	default:
		p := r.Perm(5)
		return float64(p[0]*10000 + p[1]*1000 + p[2]*100 + p[3]*10 + p[4])
	}
}

// TestSourceFastForward: a source rebuilt at the draw count an
// uninterrupted one had reached continues with exactly its stream, for
// every cut point in a mixed Intn/Float64/NormFloat64/Perm sequence,
// and is indistinguishable from math/rand's own source throughout.
func TestSourceFastForward(t *testing.T) {
	const seed, total = 42, 400
	plain := rand.New(rand.NewSource(seed))
	counted := NewSource(seed, 0)
	live := rand.New(counted)
	want := make([]float64, total)
	marks := make([]int64, total)
	for i := range want {
		marks[i] = counted.Draws()
		want[i] = draw(live, i)
		if got := draw(plain, i); got != want[i] {
			t.Fatalf("draw %d: counted source gave %v, math/rand's %v", i, want[i], got)
		}
	}
	if marks[total-1] <= int64(total) {
		t.Fatalf("%d draws counted for %d mixed values; Perm and NormFloat64 take several each", marks[total-1], total)
	}
	for cut := 0; cut < total; cut += 37 {
		src := NewSource(seed, marks[cut])
		if src.Draws() != marks[cut] {
			t.Fatalf("cut %d: rebuilt source reports %d draws, want %d", cut, src.Draws(), marks[cut])
		}
		r := rand.New(src)
		for i := cut; i < total; i++ {
			if got := draw(r, i); got != want[i] {
				t.Fatalf("cut %d: draw %d after fast-forward = %v, uninterrupted %v", cut, i, got, want[i])
			}
		}
	}
}

// TestLazySourceEqualsEager: a source built at any position, which
// seeds on its first draw, reports that position before drawing and
// then gives exactly the stream of a source seeded eagerly and drawn
// that far, whichever of Int63 and Uint64 draws first; Seed restarts it
// lazily at the new seed's first value.
func TestLazySourceEqualsEager(t *testing.T) {
	const seed, total = 7, 300
	eager := rand.NewSource(seed).(rand.Source64)
	want := make([]uint64, total+8)
	for i := range want {
		want[i] = eager.Uint64()
	}
	for pos := 0; pos < total; pos++ {
		lazy := NewSource(seed, int64(pos))
		if lazy.Draws() != int64(pos) {
			t.Fatalf("position %d: an undrawn source reports %d draws", pos, lazy.Draws())
		}
		if pos%2 == 0 {
			if got := lazy.Int63(); got != int64(want[pos]&(1<<63-1)) {
				t.Fatalf("position %d: first Int63 %d, eager %d", pos, got, int64(want[pos]&(1<<63-1)))
			}
		} else if got := lazy.Uint64(); got != want[pos] {
			t.Fatalf("position %d: first Uint64 %d, eager %d", pos, got, want[pos])
		}
		for i := pos + 1; i < pos+8; i++ {
			if got := lazy.Uint64(); got != want[i] {
				t.Fatalf("position %d: draw %d is %d, eager %d", pos, i, got, want[i])
			}
		}
		if lazy.Draws() != int64(pos+8) {
			t.Fatalf("position %d: %d draws counted after 8, want %d", pos, lazy.Draws(), pos+8)
		}
		lazy.Seed(seed)
		if lazy.Draws() != 0 || lazy.Uint64() != want[0] {
			t.Fatalf("position %d: Seed did not restart the stream", pos)
		}
	}
}

// TestFloatsJSONExact: every float64 bit pattern survives the JSON form,
// including the values JSON numbers cannot carry.
func TestFloatsJSONExact(t *testing.T) {
	in := Floats{0, math.Copysign(0, -1), 1.0 / 3, -1e-310, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	data, err := json.Marshal(struct {
		F Floats `json:"f"`
	}{in})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		F Floats `json:"f"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.F) != len(in) {
		t.Fatalf("decoded %d floats, want %d", len(out.F), len(in))
	}
	for i := range in {
		if math.Float64bits(out.F[i]) != math.Float64bits(in[i]) {
			t.Fatalf("float %d: bits %x, want %x", i, math.Float64bits(out.F[i]), math.Float64bits(in[i]))
		}
	}
	var empty Floats
	if err := json.Unmarshal([]byte(`""`), &empty); err != nil || empty != nil {
		t.Fatalf(`"" decoded to %v (err %v), want nil`, empty, err)
	}
	for _, bad := range []string{`"AAAA"`, `"!!"`, `12`, `"`} {
		if err := json.Unmarshal([]byte(bad), &empty); err == nil {
			t.Errorf("decoded %s without error", bad)
		}
	}
}
