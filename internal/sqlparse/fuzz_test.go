package sqlparse

import "testing"

// FuzzTemplateKey tokenizes arbitrary text into a template key. The
// invariants: no input panics, and the key is a function of the input —
// the same text gives the same key twice, since the featurizer's memo is
// keyed by it.
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
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		a, b := TemplateKey(Tokenize(sql)), TemplateKey(Tokenize(sql))
		if a != b {
			t.Fatalf("%q gave template keys %q and %q", sql, a, b)
		}
	})
}
