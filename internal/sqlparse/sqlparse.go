// Package sqlparse tokenizes SQL text for workload featurization. It
// normalizes literals (numbers → <num>, strings → <str>) so that queries
// differing only in constants produce identical token streams, keeps SQL
// keywords and identifiers, and maintains a bounded vocabulary that maps
// tokens to ids for the LSTM encoder (§5.1.1).
package sqlparse

import (
	"maps"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Special token ids.
const (
	TokUnk = 0 // out-of-vocabulary
	TokNum = 1 // numeric literal
	TokStr = 2 // string literal
)

// reservedSpecials is the number of reserved ids before learned tokens.
const reservedSpecials = 3

// Tokenize splits a SQL statement into normalized tokens: lowercased
// words, operators as single tokens, numbers as "<num>", quoted strings
// as "<str>".
func Tokenize(sql string) []string {
	var toks []string
	for s := (scanner{sql: sql}); ; {
		tok, word, ok := s.next()
		if !ok {
			return toks
		}
		if word {
			tok = strings.ToLower(tok)
		}
		toks = append(toks, tok)
	}
}

// AppendTemplateKey appends TemplateKey(Tokenize(sql)) to dst without
// building the token list: the featurizer's cache lookup allocates
// nothing for a statement whose template it has seen.
func AppendTemplateKey(dst []byte, sql string) []byte {
	s := scanner{sql: sql}
	for first := true; ; first = false {
		tok, word, ok := s.next()
		if !ok {
			return dst
		}
		if !first {
			dst = append(dst, ' ')
		}
		if word {
			dst = appendLower(dst, tok)
		} else {
			dst = append(dst, tok...)
		}
	}
}

// appendLower appends strings.ToLower(w), byte by byte while w is ASCII.
func appendLower(dst []byte, w string) []byte {
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= utf8.RuneSelf {
			return append(dst[:len(dst)-i], strings.ToLower(w)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// scanner holds the token rules Tokenize and AppendTemplateKey share. A
// token is a constant ("<num>", "<str>", or U+FFFD for a byte that is
// not UTF-8) or a substring of the statement; a word comes back as it
// is written, for the caller to lowercase. ASCII is read byte by byte;
// other text is decoded rune by rune, as a []rune conversion does.
type scanner struct {
	sql string
	i   int
}

// next returns the next token and whether it is a word; ok is false at
// the end of the statement.
func (s *scanner) next() (tok string, word, ok bool) {
	for s.i < len(s.sql) {
		start := s.i
		c, size := s.runeAt(start)
		s.i += size
		switch {
		case unicode.IsSpace(c):
		case c == '\'' || c == '"':
			// String literal: scan to the matching quote.
			if j := strings.IndexByte(s.sql[s.i:], byte(c)); j >= 0 {
				s.i += j + 1
			} else {
				s.i = len(s.sql)
			}
			return "<str>", false, true
		case unicode.IsDigit(c):
			s.skip(func(r rune) bool { return unicode.IsDigit(r) || r == '.' })
			return "<num>", false, true
		case unicode.IsLetter(c) || c == '_':
			s.skip(func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' })
			return s.sql[start:s.i], true, true
		case c == '<' || c == '>' || c == '=' || c == '!':
			if s.i < len(s.sql) && strings.IndexByte("<>=", s.sql[s.i]) >= 0 {
				s.i++
			}
			return s.sql[start:s.i], false, true
		case c == utf8.RuneError && size == 1:
			return "\uFFFD", false, true
		default:
			return s.sql[start:s.i], false, true
		}
	}
	return "", false, false
}

// skip advances past the runes in.
func (s *scanner) skip(in func(rune) bool) {
	for s.i < len(s.sql) {
		r, size := s.runeAt(s.i)
		if !in(r) {
			return
		}
		s.i += size
	}
}

// runeAt decodes the rune at byte i.
func (s *scanner) runeAt(i int) (rune, int) {
	if c := s.sql[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s.sql[i:])
}

// Vocab maps tokens to bounded integer ids. New tokens are admitted until
// the capacity is reached; after that they map to TokUnk. This bounds the
// LSTM's embedding table while generalizing across workloads.
type Vocab struct {
	Cap int
	ids map[string]int
}

// NewVocab returns a vocabulary holding at most capacity tokens
// (including the reserved specials).
func NewVocab(capacity int) *Vocab {
	if capacity < reservedSpecials+1 {
		capacity = reservedSpecials + 1
	}
	return &Vocab{Cap: capacity, ids: make(map[string]int)}
}

// Clone returns an independent copy: admissions through either vocabulary
// are invisible to the other.
func (v *Vocab) Clone() *Vocab {
	return &Vocab{Cap: v.Cap, ids: maps.Clone(v.ids)}
}

// Size returns the number of ids in use (reserved included).
func (v *Vocab) Size() int { return reservedSpecials + len(v.ids) }

// Len returns the number of admitted tokens, len(Tokens()).
func (v *Vocab) Len() int { return len(v.ids) }

// ID maps a token to its id, admitting it if there is room.
func (v *Vocab) ID(tok string) int {
	switch tok {
	case "<num>":
		return TokNum
	case "<str>":
		return TokStr
	}
	if id, ok := v.ids[tok]; ok {
		return id
	}
	if v.Size() >= v.Cap {
		return TokUnk
	}
	id := v.Size()
	v.ids[strings.Clone(tok)] = id // tok may be a substring of a whole statement
	return id
}

// Tokens returns the admitted tokens ordered by id (specials excluded),
// so a vocabulary can be serialized and inspected deterministically.
func (v *Vocab) Tokens() []string {
	out := make([]string, len(v.ids))
	for tok, id := range v.ids {
		out[id-reservedSpecials] = tok
	}
	return out
}

// Encode tokenizes a statement and maps it to vocabulary ids.
func (v *Vocab) Encode(sql string) []int {
	return v.EncodeTokens(Tokenize(sql))
}

// EncodeTokens maps an already-tokenized statement to vocabulary ids.
func (v *Vocab) EncodeTokens(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.ID(t)
	}
	return out
}

// TemplateKey joins a normalized token stream into a canonical template
// signature. Because Tokenize replaces literals with <num>/<str>, queries
// differing only in constants share a key — the memoization key for the
// featurizer's template-keyed encoding cache, which builds it with
// AppendTemplateKey.
func TemplateKey(toks []string) string {
	return strings.Join(toks, " ")
}
