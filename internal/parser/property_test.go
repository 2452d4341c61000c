package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/testgen"
)

// TestGeneratedProgramRoundTrip: for generated programs P,
// Print(parse(P)) reparses, and printing is a fixpoint:
// Print(parse(Print(parse(P)))) == Print(parse(P)).
func TestGeneratedProgramRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		src := testgen.New(seed).Program()
		p1, err := Parse("gen.js", src)
		if err != nil {
			t.Fatalf("seed %d: generated program failed to parse: %v\n%s", seed, err, src)
		}
		out1 := ast.Print(p1)
		p2, err := Parse("gen.js", out1)
		if err != nil {
			t.Fatalf("seed %d: printed output failed to reparse: %v\noriginal:\n%s\nprinted:\n%s",
				seed, err, src, out1)
		}
		out2 := ast.Print(p2)
		if out1 != out2 {
			t.Fatalf("seed %d: printing is not a fixpoint\nfirst:\n%s\nsecond:\n%s", seed, out1, out2)
		}
	}
}

// TestParseNeverPanics: the parser returns errors, never panics, for
// arbitrary input strings.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse("fuzz.js", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Adversarial fixed inputs.
	for _, src := range []string{
		"", ";", "{", "}", "((((", "))))", "var", "var =", "function",
		"function (", "a.", "a[", "a(", "=>", "...", "`${", "`${}`",
		"/", "/unterminated", "'", "\"", "0x", "1..2", "new", "new.new",
		"return", "throw", "try {}", "switch", "switch (x) { case }",
		"a ? b", "a ?? ", "obj[key] =", "for (", "for (;;", "do {} while",
		"\\", "\x00", "€", strings.Repeat("(", 2000), strings.Repeat("{", 2000),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse("fuzz.js", src)
		}()
	}
}

// TestGeneratedProgramsExecutable: generated programs must also survive the
// AST walkers (Functions and call-expression counts collect without panicking and with
// consistent counts after a print round-trip).
func TestGeneratedProgramWalkers(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		src := testgen.New(seed*104729 + 3).Program()
		p1, err := Parse("gen.js", src)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Parse("gen.js", ast.Print(p1))
		if err != nil {
			t.Fatal(err)
		}
		if len(ast.Functions(p1)) != len(ast.Functions(p2)) {
			t.Fatalf("seed %d: function count changed across round-trip", seed)
		}
		if countNodes[*ast.CallExpr](p1) != countNodes[*ast.CallExpr](p2) {
			t.Fatalf("seed %d: call-site count changed across round-trip", seed)
		}
	}
}

// countNodes counts the nodes of type T that ast.Walk visits in the tree.
func countNodes[T ast.Node](n ast.Node) int {
	count := 0
	ast.Walk(n, func(n ast.Node) bool {
		if _, ok := n.(T); ok {
			count++
		}
		return true
	})
	return count
}
