package lexer

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/loc"
)

func tokens(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := New("test.js", src).All()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks := tokens(t, "var foo = function bar() {}")
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "var"}, {Ident, "foo"}, {Punct, "="},
		{Keyword, "function"}, {Ident, "bar"}, {Punct, "("}, {Punct, ")"},
		{Punct, "{"}, {Punct, "}"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %s %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]float64{
		"0":      0,
		"42":     42,
		"3.25":   3.25,
		"1e3":    1000,
		"2.5e-1": 0.25,
		"0x10":   16,
		"0xff":   255,
		".5":     0.5,
	}
	for src, want := range cases {
		toks := tokens(t, src)
		if toks[0].Kind != Number || toks[0].Num != want {
			t.Errorf("lex %q = %v (num %v), want %v", src, toks[0], toks[0].Num, want)
		}
	}
}

// TestNumbersLikeJavaScript pins literals a float64 cannot hold exactly:
// out-of-range decimals are Infinity or zero, and hex literals round to
// the nearest double however many digits they have.
func TestNumbersLikeJavaScript(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1e999", math.Inf(1)},
		{"1E400", math.Inf(1)},
		{"1e-400", 0},
		{"0xFFFFFFFFFFFFFFFFFF", 1 << 72},
		{"0x1FFFFFFFFFFFFF", 1<<53 - 1},
		{"0x20000000000001", 1 << 53}, // halfway: rounds to even
		{"0x20000000000003", 1<<53 + 4},
		{"0X1f", 31},
		{"0x" + strings.Repeat("f", 300), math.Inf(1)},
	}
	for _, c := range cases {
		toks := tokens(t, c.src)
		if toks[0].Kind != Number || toks[0].Num != c.want || toks[0].Text != c.src {
			t.Errorf("lex %q = %v (num %v), want %v", c.src, toks[0], toks[0].Num, c.want)
		}
	}
	if _, err := New("t.js", "0x").All(); err == nil {
		t.Error("expected error for 0x without digits")
	}
}

// TestEscapeDigits checks that \x takes exactly two hex digits and \u
// exactly four, as in JavaScript; fewer, or a non-hex digit among them, is
// an error rather than a shorter code point.
func TestEscapeDigits(t *testing.T) {
	ok := map[string]string{
		`"\u0041"`:   "A",
		`"\u00e9"`:   "\u00e9",
		`"a\u0042c"`: "aBc",
		`"\u004A1"`:  "J1",
		`'\x4a\x4B'`: "JK",
		`"x\x41"`:    "xA",
	}
	for src, want := range ok {
		toks := tokens(t, src)
		if toks[0].Kind != String || toks[0].Text != want {
			t.Errorf("lex %s = %q, want %q", src, toks[0].Text, want)
		}
	}
	for _, src := range []string{`"\u12G4"`, `"\u12"`, `"\u-123"`, `"\u{41}"`, `"\x4"`, `"\xG1"`, `"\x4G"`} {
		if toks, err := New("t.js", src).All(); err == nil {
			t.Errorf("lex %s = %q, want an escape error", src, toks[0].Text)
		}
	}
}

// TestStringSlicesSource checks that a string without escapes is a slice
// of the source rather than a copy.
func TestStringSlicesSource(t *testing.T) {
	src := `x = "plain text"`
	toks := tokens(t, src)
	if toks[2].Text != "plain text" || unsafe.StringData(toks[2].Text) != unsafe.StringData(src[5:]) {
		t.Errorf("string %q is not the source slice", toks[2].Text)
	}
}

// TestTokenSize guards the compact token: the parser holds every token of
// a file at once.
func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n > 40 {
		t.Errorf("Token is %d bytes, want at most 40", n)
	}
}

func TestStringsAndEscapes(t *testing.T) {
	cases := map[string]string{
		`"hello"`:       "hello",
		`'world'`:       "world",
		`"a\nb"`:        "a\nb",
		`"t\tab"`:       "t\tab",
		`'it\'s'`:       "it's",
		`"\x41"`:        "A",
		`"A"`:           "A",
		`"back\\slash"`: `back\slash`,
	}
	for src, want := range cases {
		toks := tokens(t, src)
		if toks[0].Kind != String || toks[0].Text != want {
			t.Errorf("lex %s = %q, want %q", src, toks[0].Text, want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := New("t.js", `"abc`).All(); err == nil {
		t.Error("expected error for unterminated string")
	}
	if _, err := New("t.js", "\"ab\ncd\"").All(); err == nil {
		t.Error("expected error for newline in string")
	}
}

func TestTemplates(t *testing.T) {
	toks := tokens(t, "`a${x + 1}b`")
	if toks[0].Kind != Template {
		t.Fatalf("got %v, want template", toks[0])
	}
	if toks[0].Text != "a${x + 1}b" {
		t.Errorf("template raw = %q", toks[0].Text)
	}
	// Nested braces inside interpolation must not terminate early.
	toks = tokens(t, "`v=${f({a: 1})}`")
	if toks[0].Text != "v=${f({a: 1})}" {
		t.Errorf("template raw = %q", toks[0].Text)
	}
}

func TestRegexVsDivision(t *testing.T) {
	// After an identifier, / is division.
	toks := tokens(t, "a / b")
	if toks[1].Kind != Punct || toks[1].Text != "/" {
		t.Errorf("got %v, want division", toks[1])
	}
	// After '=', / starts a regex.
	toks = tokens(t, `x = /ab+c/g`)
	if toks[2].Kind != Regex {
		t.Fatalf("got %v, want regex", toks[2])
	}
	if pattern, flags := toks[2].Regex(); pattern != "ab+c" || flags != "g" || toks[2].Text != "/ab+c/g" {
		t.Errorf("regex %q = %q flags %q", toks[2].Text, pattern, flags)
	}
	// After '(', regex.
	toks = tokens(t, `s.replace(/x\//, "y")`)
	var foundRegex bool
	for _, tk := range toks {
		if tk.Kind == Regex {
			foundRegex = true
			if pattern, flags := tk.Regex(); pattern != `x\/` || flags != "" {
				t.Errorf("regex %q = %q flags %q", tk.Text, pattern, flags)
			}
		}
	}
	if !foundRegex {
		t.Error("no regex token found")
	}
	// Character class containing / must not terminate the literal.
	toks = tokens(t, `x = /[/]/`)
	if pattern, _ := toks[2].Regex(); toks[2].Kind != Regex || pattern != "[/]" {
		t.Errorf("got %v", toks[2])
	}
}

func TestComments(t *testing.T) {
	toks := tokens(t, "a // comment\nb /* block\ncomment */ c")
	names := []string{}
	for _, tk := range toks {
		if tk.Kind == Ident {
			names = append(names, tk.Text)
		}
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Errorf("idents = %v", names)
	}
	if !toks[1].NewlineBefore {
		t.Error("b should have NewlineBefore")
	}
	if !toks[2].NewlineBefore {
		t.Error("c should have NewlineBefore (newline inside block comment)")
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := New("t.js", "a /* b").All(); err == nil {
		t.Error("expected error for unterminated block comment")
	}
}

func TestNewlineTracking(t *testing.T) {
	toks := tokens(t, "a\nb; c")
	if !toks[1].NewlineBefore {
		t.Error("b should have NewlineBefore")
	}
	if toks[3].NewlineBefore {
		t.Error("c should not have NewlineBefore")
	}
}

func TestLocations(t *testing.T) {
	toks := tokens(t, "ab\n  cd")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("ab at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("cd at %d:%d", toks[1].Line, toks[1].Col)
	}
	if got, want := toks[1].Loc("test.js"), (loc.Loc{File: "test.js", Line: 2, Col: 3}); got != want {
		t.Errorf("cd Loc = %v, want %v", got, want)
	}
}

func TestPunctuators(t *testing.T) {
	src := "=== !== == != <= >= && || ?? ++ -- += -= => ... >>> <<"
	toks := tokens(t, src)
	want := strings.Fields(src)
	for i, w := range want {
		if toks[i].Kind != Punct || toks[i].Text != w {
			t.Errorf("token %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestSpreadVsDots(t *testing.T) {
	toks := tokens(t, "f(...args)")
	if toks[2].Text != "..." {
		t.Errorf("got %v, want ...", toks[2])
	}
}

func TestKeywordClassification(t *testing.T) {
	if !IsKeyword("function") || IsKeyword("foo") {
		t.Error("IsKeyword misclassifies")
	}
	if !IsContextualKeyword("of") || IsContextualKeyword("function") {
		t.Error("IsContextualKeyword misclassifies")
	}
}

func TestEOFStable(t *testing.T) {
	lx := New("t.js", "a")
	for i := 0; i < 3; i++ {
		if _, err := lx.Next(); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := lx.Next()
	if err != nil || tok.Kind != EOF {
		t.Errorf("repeated Next after EOF = %v, %v", tok, err)
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := New("t.js", "a @ b").All(); err == nil {
		t.Error("expected error for @")
	}
}
