package interp

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/loc"
	"repro/internal/parser"
	"repro/internal/testgen"
	"repro/internal/value"
)

// runGenerated executes a generated program in a fresh interpreter and
// returns a rendering of the resulting global/module scope.
func runGenerated(t *testing.T, src string, lenient bool) (string, error) {
	t.Helper()
	it := New(Options{
		Approximate:  lenient,
		MaxLoopIters: 50_000,
		MaxDepth:     300,
	})
	prog, err := parser.Parse("gen.js", src)
	if err != nil {
		t.Fatalf("generated program failed to parse: %v\n%s", err, src)
	}
	scope := value.NewScope(it.GlobalScope())
	_, err = it.RunProgram(prog, scope, value.Undefined{})
	var sb strings.Builder
	for _, name := range scope.Names() {
		v, _ := scope.Get(name)
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteString(value.Inspect(v))
		sb.WriteByte('\n')
	}
	return sb.String(), err
}

// TestGeneratedProgramsDontPanic: the interpreter never panics on generated
// programs; it returns JS errors or budget errors at worst.
func TestGeneratedProgramsDontPanic(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src := testgen.New(seed).Program()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: interpreter panic: %v\n%s", seed, r, src)
				}
			}()
			_, _ = runGenerated(t, src, false)
		}()
	}
}

// TestGeneratedProgramsDeterministic: two fresh interpreters produce the
// same final scope and the same error outcome for the same program —
// the determinism approximate interpretation relies on (paper §2).
func TestGeneratedProgramsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		src := testgen.New(seed * 31).Program()
		out1, err1 := runGenerated(t, src, false)
		out2, err2 := runGenerated(t, src, false)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: error outcome differs: %v vs %v\n%s", seed, err1, err2, src)
		}
		if out1 != out2 {
			t.Fatalf("seed %d: scopes differ\nfirst:\n%s\nsecond:\n%s\nprogram:\n%s",
				seed, out1, out2, src)
		}
	}
}

// TestGeneratedProgramsLenientNeverFail: in approximate (lenient+proxy)
// mode, generated programs never produce uncaught reference/type errors —
// the error recovery that keeps forced execution going.
func TestGeneratedProgramsLenientNeverFail(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		src := testgen.New(seed*77 + 5).Program()
		_, err := runGenerated(t, src, true)
		if err != nil {
			if _, isBudget := err.(*BudgetError); isBudget {
				continue // budget aborts are expected and fine
			}
			if strings.Contains(err.Error(), "ReferenceError") ||
				strings.Contains(err.Error(), "TypeError") {
				t.Fatalf("seed %d: lenient mode leaked %v\n%s", seed, err, src)
			}
		}
	}
}

// TestGeneratedProgramsPrintedFormEquivalent: a program and its printed
// canonical form produce the same final scope — the printer preserves
// semantics, not just syntax.
func TestGeneratedProgramsPrintedFormEquivalent(t *testing.T) {
	for seed := uint64(0); seed < 80; seed++ {
		src := testgen.New(seed*13 + 1).Program()
		prog, err := parser.Parse("gen.js", src)
		if err != nil {
			t.Fatal(err)
		}
		printed := astPrint(prog)
		out1, err1 := runGenerated(t, src, false)
		out2, err2 := runGenerated(t, printed, false)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: printed form changes error outcome: %v vs %v\noriginal:\n%s\nprinted:\n%s",
				seed, err1, err2, src, printed)
		}
		if out1 != out2 {
			t.Fatalf("seed %d: printed form changes semantics\noriginal scope:\n%s\nprinted scope:\n%s",
				seed, out1, out2)
		}
	}
}

// astPrint is a tiny indirection so the property test reads naturally.
func astPrint(n interface{ Pos() loc.Loc }) string {
	return ast.Print(n.(ast.Node))
}
