package parser

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
)

// parseAlloc parses src and returns the program and the bytes the parse
// allocated.
func parseAlloc(t *testing.T, src string) (*ast.Program, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prog, err := Parse("t.js", src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return prog, after.TotalAlloc - before.TotalAlloc
}

// TestTemplateParseLinear: a file of one-interpolation template lines
// parses in work linear in its length. Re-lexing each ${…} body behind one
// newline per preceding line made the allocated bytes grow with the square
// of the line count; 8× the lines must now cost well under 12× the bytes.
// The last interpolation still reports its own line and column.
func TestTemplateParseLinear(t *testing.T) {
	const line = "var x = `a${y}b`;\n"
	_, small := parseAlloc(t, strings.Repeat(line, 2000))
	prog, large := parseAlloc(t, strings.Repeat(line, 16000))
	t.Logf("2k lines: %d bytes; 16k lines: %d bytes", small, large)
	if large > 12*small {
		t.Errorf("16k lines allocated %d bytes, 2k lines %d: %.1f×, want linear (8×)", large, small, float64(large)/float64(small))
	}
	last := prog.Body[len(prog.Body)-1].(*ast.VarDecl).Decls[0].Init.(*ast.TemplateLit)
	if loc := last.Exprs[0].(*ast.Ident).Loc; loc.Line != 16000 || loc.Col != 13 {
		t.Errorf("last interpolation at %d:%d, want 16000:13", loc.Line, loc.Col)
	}
}
