package interp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/value"
)

// runWithOptions executes src under opts and returns the error.
func runWithOptions(t *testing.T, src string, opts Options) error {
	t.Helper()
	it := New(opts)
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{})
	return err
}

// spinPrograms are hang shapes a deadline must contain: a bare spin (no
// expression ever evaluated — only chargeLoop runs), a spin with body work
// (the evalExpr path), and a spin inside a function call.
var spinPrograms = []struct {
	name, src string
}{
	{"bare", "for (;;) { }"},
	{"body-work", "var i = 0; for (;;) { i = i + 1; }"},
	{"in-call", "function f() { while (true) { } } f();"},
}

// TestDeadlineContainsSpin: a spin-loop program must return a deadline
// BudgetError within 2× the configured wall-clock limit, in both strict and
// lenient modes. The loop budget is left unlimited so only the deadline can
// stop the spin (as with real hangs the structural budgets cannot see).
func TestDeadlineContainsSpin(t *testing.T) {
	const limit = 100 * time.Millisecond
	modes := []struct {
		name string
		opts Options
	}{
		{"strict", Options{Deadline: limit}},
		{"lenient", Options{Deadline: limit, Approximate: true}},
	}
	for _, mode := range modes {
		for _, prog := range spinPrograms {
			t.Run(mode.name+"/"+prog.name, func(t *testing.T) {
				start := time.Now()
				err := runWithOptions(t, prog.src, mode.opts)
				elapsed := time.Since(start)
				var budget *BudgetError
				if !errors.As(err, &budget) {
					t.Fatalf("got error %v (%T), want *BudgetError", err, err)
				}
				if !budget.IsDeadline() {
					t.Fatalf("budget reason = %q, want %q", budget.Reason, ReasonDeadline)
				}
				if elapsed > 2*limit {
					t.Errorf("spin contained after %v, want within 2× the %v deadline", elapsed, limit)
				}
			})
		}
	}
}

// TestDeadlineNotCatchable: the deadline abort is a Go-level error, not a
// JavaScript exception, so try/catch cannot swallow it — a hang inside a
// try block is still contained.
func TestDeadlineNotCatchable(t *testing.T) {
	err := runWithOptions(t, "try { for (;;) { } } catch (e) { }", Options{Deadline: 50 * time.Millisecond})
	var budget *BudgetError
	if !errors.As(err, &budget) || !budget.IsDeadline() {
		t.Fatalf("got %v, want uncatchable deadline BudgetError", err)
	}
}

// TestResetBudgetRestartsDeadline: ResetBudget must restart the deadline
// clock, so a sequence of items each within the limit never trips it even
// though their total runtime exceeds it.
func TestResetBudgetRestartsDeadline(t *testing.T) {
	const limit = 120 * time.Millisecond
	it := New(Options{Deadline: limit})
	prog, err := parser.Parse("test.js", "var x = 1; x = x + 1;")
	if err != nil {
		t.Fatal(err)
	}
	// Sleep most of the limit away between items; without the reset the
	// clock would expire partway through the sequence.
	for i := 0; i < 4; i++ {
		time.Sleep(limit / 2)
		it.ResetBudget()
		if _, err := it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{}); err != nil {
			t.Fatalf("item %d: %v (ResetBudget must restart the deadline clock)", i, err)
		}
	}

	// And the restarted clock still enforces the limit for the next item.
	spin, err := parser.Parse("test.js", "for (;;) { }")
	if err != nil {
		t.Fatal(err)
	}
	it.ResetBudget()
	_, err = it.RunProgram(spin, value.NewScope(it.GlobalScope()), value.Undefined{})
	var budget *BudgetError
	if !errors.As(err, &budget) || !budget.IsDeadline() {
		t.Fatalf("got %v, want deadline BudgetError after reset", err)
	}
}

// TestStepBudget: MaxSteps bounds total expression evaluations per item,
// aborting hard in both strict and lenient modes (unlike the loop budget,
// which lenient mode converts into a loop exit), and ResetBudget clears the
// counter.
func TestStepBudget(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"strict", Options{MaxSteps: 1000}},
		{"lenient", Options{MaxSteps: 1000, Approximate: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			err := runWithOptions(t, "var i = 0; while (true) { i = i + 1; }", mode.opts)
			var budget *BudgetError
			if !errors.As(err, &budget) {
				t.Fatalf("got %v (%T), want *BudgetError", err, err)
			}
			if budget.Reason != ReasonSteps {
				t.Fatalf("budget reason = %q, want %q", budget.Reason, ReasonSteps)
			}
		})
	}

	// ResetBudget clears the step counter: many small items under one
	// interpreter never trip a budget each item fits in.
	it := New(Options{MaxSteps: 1000})
	prog, err := parser.Parse("test.js", "var x = 0; for (var i = 0; i < 50; i = i + 1) { x = x + i; }")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		it.ResetBudget()
		if _, err := it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{}); err != nil {
			t.Fatalf("item %d: %v (ResetBudget must clear the step counter)", i, err)
		}
	}
}

// TestNoBudgetsNoInterference: with neither Deadline nor MaxSteps set,
// programs run exactly as before (the hot path takes the budgetActive
// fast path and no BudgetError can carry the new reasons).
func TestNoBudgetsNoInterference(t *testing.T) {
	if err := runWithOptions(t, "var x = 0; for (var i = 0; i < 10000; i = i + 1) { x = x + 1; }", Options{}); err != nil {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
}
