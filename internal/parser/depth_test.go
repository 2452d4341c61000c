package parser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lexer"
)

// nested returns open×n + inner + close×n.
func nested(open, inner, close string, n int) string {
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// TestNestingDepthCap: input nested past maxDepth, in any of the forms the
// parser recurses on, is an ordinary parse error, never a stack overflow.
func TestNestingDepthCap(t *testing.T) {
	const n = 40000
	for name, src := range map[string]string{
		"parens":    "var x = " + nested("(", "1", ")", n) + ";",
		"arrays":    "var x = " + nested("[", "1", "]", n) + ";",
		"objects":   "var x = " + nested("{a:", "1", "}", n) + ";",
		"unary":     "var x = " + strings.Repeat("!", n) + "1;",
		"new":       "var x = " + strings.Repeat("new ", n) + "F;",
		"assign":    strings.Repeat("a = ", n) + "1;",
		"arrows":    "var f = " + strings.Repeat("x => ", n) + "x;",
		"ternary":   "var x = " + strings.Repeat("c ? 1 : ", n) + "2;",
		"blocks":    nested("{", "", "}", n),
		"ifs":       strings.Repeat("if (c) ", n) + ";",
		"functions": nested("function f() {", "", "}", n),
		"templates": "var x = " + nested("`${", "1", "}`", maxDepth) + ";",
	} {
		_, err := Parse("deep.js", src)
		var perr *Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") {
			t.Errorf("%s: Parse error = %v; want the nesting-depth error", name, err)
		}
	}
	// Just under the cap parses; the corpus and generated programs nest to
	// at most 23 levels.
	if _, err := Parse("ok.js", "var x = "+nested("(", "1", ")", maxDepth/2-2)+";"); err != nil {
		t.Errorf("parens %d deep: %v", maxDepth/2-2, err)
	}
}

// TestArrowLookaheadLinear: the arrow-head lookahead at every '(' of
// deeply nested parentheses examines each token at most once in total.
func TestArrowLookaheadLinear(t *testing.T) {
	for _, depth := range []int{maxDepth/2 - 2, 40000} {
		for _, inner := range []string{"1", "(a) => a"} {
			src := "var x = " + nested("(", inner, ")", depth) + ";"
			toks, err := lexer.New("deep.js", src).All()
			if err != nil {
				t.Fatal(err)
			}
			p := &parser{file: "deep.js", toks: toks}
			func() {
				defer p.catchBailout(&err)
				for !p.at(lexer.EOF) {
					p.statement()
				}
			}()
			if p.scanned > len(toks) {
				t.Errorf("depth %d, inner %q: lookahead examined %d tokens of %d", depth, inner, p.scanned, len(toks))
			}
		}
	}
}
