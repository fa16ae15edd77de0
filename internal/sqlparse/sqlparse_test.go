package sqlparse

import (
	"reflect"
	"testing"
)

func TestTemplateSharedAcrossLiterals(t *testing.T) {
	template := func(sql string) string { return TemplateKey(Tokenize(sql)) }
	a := template("SELECT c FROM t WHERE id = 42 AND name = 'bob'")
	b := template("select c from t where id = 90210 and name = 'alice'")
	if a != b {
		t.Fatalf("literal-only variants should share a template:\n%q\n%q", a, b)
	}
	c := template("SELECT c FROM t WHERE id = 42 OR name = 'bob'")
	if a == c {
		t.Fatal("structurally different statements must not share a template")
	}
}

func TestEncodeTokensMatchesEncode(t *testing.T) {
	v1 := NewVocab(64)
	v2 := NewVocab(64)
	stmts := []string{
		"SELECT a, b FROM t WHERE x = 1",
		"INSERT INTO t VALUES (1, 'x')",
		"SELECT a, b FROM t WHERE x = 999",
	}
	for _, sql := range stmts {
		a := v1.Encode(sql)
		b := v2.EncodeTokens(Tokenize(sql))
		if len(a) != len(b) {
			t.Fatalf("length mismatch for %q", sql)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("id mismatch at %d for %q", i, sql)
			}
		}
	}
	if v1.Size() != v2.Size() {
		t.Fatal("admission order must match between Encode and EncodeTokens")
	}
}

func TestTokenizeNormalizesLiterals(t *testing.T) {
	a := Tokenize("SELECT * FROM tweets WHERE id = 42")
	b := Tokenize("SELECT * FROM tweets WHERE id = 977")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("constants should normalize: %v vs %v", a, b)
	}
	want := []string{"select", "*", "from", "tweets", "where", "id", "=", "<num>"}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("tokens = %v, want %v", a, want)
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks := Tokenize("INSERT INTO t (k) VALUES ('user42')")
	found := false
	for _, tk := range toks {
		if tk == "<str>" {
			found = true
		}
		if tk == "user42" {
			t.Fatal("string literal leaked")
		}
	}
	if !found {
		t.Fatalf("no <str> token in %v", toks)
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks := Tokenize("a >= 1 AND b <> 2 AND c != 3")
	join := ""
	for _, tk := range toks {
		join += tk + " "
	}
	for _, op := range []string{">=", "<>", "!="} {
		found := false
		for _, tk := range toks {
			if tk == op {
				found = true
			}
		}
		if !found {
			t.Fatalf("operator %q not tokenized in %v", op, toks)
		}
	}
}

func TestTokenizeFloatAndEmpty(t *testing.T) {
	toks := Tokenize("select 3.14")
	if !reflect.DeepEqual(toks, []string{"select", "<num>"}) {
		t.Fatalf("float tokens = %v", toks)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty SQL should yield no tokens")
	}
	if len(Tokenize("   ")) != 0 {
		t.Fatal("whitespace should yield no tokens")
	}
}

func TestVocabBounded(t *testing.T) {
	v := NewVocab(6) // 3 reserved + 3 learnable
	a := v.ID("select")
	b := v.ID("from")
	c := v.ID("where")
	if a < 3 || b < 3 || c < 3 || a == b || b == c {
		t.Fatalf("learned ids wrong: %d %d %d", a, b, c)
	}
	if v.ID("overflow") != TokUnk {
		t.Fatal("over-capacity token should map to <unk>")
	}
	if v.ID("select") != a {
		t.Fatal("existing token id changed")
	}
	if v.ID("<num>") != TokNum || v.ID("<str>") != TokStr {
		t.Fatal("specials wrong")
	}
}

func TestVocabEncodeStable(t *testing.T) {
	v := NewVocab(64)
	e1 := v.Encode("SELECT a FROM b WHERE c = 5")
	e2 := v.Encode("SELECT a FROM b WHERE c = 9")
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("same-shape queries should encode identically: %v vs %v", e1, e2)
	}
	e3 := v.Encode("DELETE FROM b")
	if reflect.DeepEqual(e1, e3) {
		t.Fatal("different queries should differ")
	}
}

func TestVocabMinCapacity(t *testing.T) {
	v := NewVocab(0)
	if v.Cap < 4 {
		t.Fatalf("capacity floor not applied: %d", v.Cap)
	}
}
