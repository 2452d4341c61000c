package parser_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// FuzzParse: any input parses to a program or fails with an error, never
// a panic. A program prints to source that parses again and prints the
// same (fuzz oracle 4: print → parse → print is a fixpoint). The seeds in
// testdata/fuzz/FuzzParse are corpus files, modules of the fuzz
// reproducers under the repository's testdata/fuzz, nested templates, and
// inputs the fuzzer found.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("f.js", src)
		if err != nil {
			return
		}
		out := ast.Print(prog)
		prog2, err := parser.Parse("f.js", out)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, out)
		}
		if out2 := ast.Print(prog2); out2 != out {
			t.Fatalf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", out, out2)
		}
	})
}
