package lexer_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lexer"
)

// interpolation is one ${…} body of a template token and the position its
// first byte has in the file.
type interpolation struct {
	body      string
	line, col int
}

// interpolations splits a template token's raw contents the way the
// parser does: escapes are skipped two bytes at a time, and a body runs to
// the brace that balances its ${.
func interpolations(tok lexer.Token) []interpolation {
	var out []interpolation
	raw := tok.Text
	line, col := int(tok.Line), int(tok.Col)+1
	bump := func(c byte) {
		if c == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	for i := 0; i < len(raw); {
		switch {
		case raw[i] == '\\' && i+1 < len(raw):
			bump(raw[i])
			bump(raw[i+1])
			i += 2
		case raw[i] == '$' && i+1 < len(raw) && raw[i+1] == '{':
			bump('$')
			bump('{')
			i += 2
			start, startLine, startCol := i, line, col
			for depth := 1; i < len(raw); i++ {
				if raw[i] == '{' {
					depth++
				} else if raw[i] == '}' {
					if depth--; depth == 0 {
						break
					}
				}
				bump(raw[i])
			}
			out = append(out, interpolation{raw[start:i], startLine, startCol})
		default:
			bump(raw[i])
			i++
		}
	}
	return out
}

// lexAll returns the tokens of lx, or the error text.
func lexAll(lx *lexer.Lexer) ([]lexer.Token, string) {
	toks, err := lx.All()
	if err != nil {
		return nil, err.Error()
	}
	return toks, ""
}

// samePadded checks that lexing body at line:col yields the same tokens —
// kind, text, cooked value, location and NewlineBefore — and the same
// error as lexing it behind line-1 newlines and col-1 spaces, the padded
// re-lex NewAt replaces. It returns the tokens.
func samePadded(t *testing.T, file, body string, line, col int) []lexer.Token {
	t.Helper()
	pad := strings.Repeat("\n", line-1) + strings.Repeat(" ", col-1)
	want, wantErr := lexAll(lexer.New(file, pad+body))
	got, gotErr := lexAll(lexer.NewAt(file, body, line, col))
	if gotErr != wantErr {
		t.Fatalf("%s:%d:%d %q: error %q, padded lex gives %q", file, line, col, body, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s:%d:%d %q: %d tokens, padded lex gives %d", file, line, col, body, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s:%d:%d %q: token %d = %+v, padded lex gives %+v", file, line, col, body, i, got[i], want[i])
		}
	}
	return got
}

// TestNewAtMatchesPadding is the differential test of NewAt against the
// padded re-lex. It runs over every template interpolation, nested ones
// included, of the corpus and of hand-written sources: the corpus stores
// its JavaScript in Go raw strings, so it holds no template literals.
// Every corpus file is also lexed whole as if it sat at a few positions,
// so real token streams (regexes, comments, multi-line strings) are
// covered too.
func TestNewAtMatchesPadding(t *testing.T) {
	n := 0
	var check func(file string, toks []lexer.Token)
	check = func(file string, toks []lexer.Token) {
		for _, tok := range toks {
			if tok.Kind != lexer.Template {
				continue
			}
			for _, in := range interpolations(tok) {
				n++
				check(file, samePadded(t, file, in.body, in.line, in.col))
			}
		}
	}
	for _, b := range corpus.All() {
		paths := make([]string, 0, len(b.Project.Files))
		for path := range b.Project.Files {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			src := b.Project.Files[path]
			check(path, samePadded(t, path, src, 40, 3))
			samePadded(t, path, src, 1, 9)
		}
	}
	for _, src := range []string{
		"var a = `x${`y${z}`}`;",
		"var b = `\n  ${ f(\n 1) }${''}${\n}`;",
		"var c = `\\${a}\\${ /re}/g.test(s) }${x /* } */}`;",
		"f(`${a}${b}`,\n  `${ {k: 1}.k }`, `${'unterminated}`);",
	} {
		check("t.js", mustLex(t, src))
	}
	if n == 0 {
		t.Fatal("no template interpolations checked")
	}
}

func mustLex(t *testing.T, src string) []lexer.Token {
	t.Helper()
	toks, err := lexer.New("t.js", src).All()
	if err != nil {
		t.Fatal(err)
	}
	return toks
}
