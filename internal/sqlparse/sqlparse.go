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
	i := 0
	rs := []rune(sql)
	n := len(rs)
	for i < n {
		c := rs[i]
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'' || c == '"':
			// String literal: scan to the matching quote.
			q := c
			j := i + 1
			for j < n && rs[j] != q {
				j++
			}
			toks = append(toks, "<str>")
			i = j + 1
		case unicode.IsDigit(c):
			j := i
			for j < n && (unicode.IsDigit(rs[j]) || rs[j] == '.') {
				j++
			}
			toks = append(toks, "<num>")
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
				j++
			}
			word := strings.ToLower(string(rs[i:j]))
			toks = append(toks, word)
			i = j
		case strings.ContainsRune("<>=!", c):
			j := i + 1
			if j < n && strings.ContainsRune("<>=", rs[j]) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		default:
			toks = append(toks, string(c))
			i++
		}
	}
	return toks
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
	v.ids[tok] = id
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
// Splitting tokenization from id lookup lets callers tokenize once and
// reuse the token stream both as a template signature (TemplateKey) and
// as encoder input.
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
// featurizer's template-keyed encoding cache.
func TemplateKey(toks []string) string {
	return strings.Join(toks, " ")
}
