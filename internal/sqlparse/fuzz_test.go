package sqlparse

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzTemplateKey tokenizes arbitrary text into a template key. The
// invariants: no input panics; Tokenize gives the tokens tokenizeRunes,
// the rune-slice tokenizer it replaced, gives; and AppendTemplateKey
// appends exactly TemplateKey(Tokenize(sql)), the featurizer's memo key.
func FuzzTemplateKey(f *testing.F) {
	for _, sql := range []string{
		"SELECT c FROM t WHERE id = 42 AND name = 'bob'",
		"select c from t where id = 90210 and name = 'alice'",
		"INSERT INTO t VALUES (1, 'x', -3.5e10)",
		"UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1",
		"SELECT a<>b, a>=b, a!=b FROM t -- comment",
		"'unterminated",
		"",
		"\x00\xff é 1.2.3 ''''",
		"SELECT Ärger, İd, ǅx FROM t WHERE ٣٤ = x�\xc3 < \"qé\" ",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		toks := Tokenize(sql)
		if want := tokenizeRunes(sql); !slices.Equal(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", sql, toks, want)
		}
		prefix := []byte("k:")
		key := AppendTemplateKey(prefix, sql)
		if want := "k:" + TemplateKey(toks); string(key) != want {
			t.Fatalf("AppendTemplateKey(%q) = %q, want %q", sql, key, want)
		}
	})
}

// tokenizeRunes is the tokenizer Tokenize replaced, kept as its
// reference: it converts the statement to runes and allocates every
// token.
func tokenizeRunes(sql string) []string {
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
			toks = append(toks, strings.ToLower(string(rs[i:j])))
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
