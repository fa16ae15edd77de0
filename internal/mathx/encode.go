package mathx

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Floats is a float64 slice whose JSON form is exact for every value,
// ±Inf and NaN included: a base64 string of the little-endian IEEE-754
// bits, about half the size of the decimal form and decoded without
// parsing a number.
type Floats []float64

// MarshalJSON encodes the slice as a base64 string; nil and empty both
// encode as "".
func (f Floats) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:], raw)
	return out, nil
}

// UnmarshalJSON decodes what MarshalJSON wrote; "" and null decode to nil.
func (f *Floats) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = nil
		return nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return errors.New("mathx: Floats want a base64 string")
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(data)-2))
	n, err := base64.StdEncoding.Decode(raw, data[1:len(data)-1])
	if err != nil {
		return fmt.Errorf("mathx: Floats: %w", err)
	}
	if n%8 != 0 {
		return fmt.Errorf("mathx: Floats: %d bytes is not a whole number of float64s", n)
	}
	var out Floats
	if n > 0 {
		out = make(Floats, n/8)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	*f = out
	return nil
}

// Source is a math/rand Source64 that counts the values drawn from it,
// so a generator's position is one integer: math/rand's own source
// cannot be marshaled, and math/rand/v2's would change every stream.
// NewSource(seed, n) stands where a source seeded alike stood after n
// draws. It seeds and fast-forwards on its first draw, so a source that
// is replaced or never drawn from costs nothing; the fast-forward costs
// what the draws did.
type Source struct {
	src   rand.Source64 // nil until the first draw
	seed  int64
	draws int64
}

// NewSource returns the source rand.NewSource(seed) would be after
// draws draws.
func NewSource(seed, draws int64) *Source {
	return &Source{seed: seed, draws: draws}
}

// Draws returns how many values have been drawn since seeding.
func (s *Source) Draws() int64 { return s.draws }

// seeded returns the underlying source at the current position, seeding
// and fast-forwarding it first if it has not drawn yet.
func (s *Source) seeded() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := int64(0); i < s.draws; i++ {
			s.src.Uint64()
		}
	}
	return s.src
}

func (s *Source) Int63() int64 {
	src := s.seeded()
	s.draws++
	return src.Int63()
}

func (s *Source) Uint64() uint64 {
	src := s.seeded()
	s.draws++
	return src.Uint64()
}

func (s *Source) Seed(seed int64) {
	s.src, s.seed, s.draws = nil, seed, 0
}
