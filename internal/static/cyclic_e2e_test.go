package static

import (
	"testing"

	"repro/internal/modules"
	"repro/internal/testgen"
)

// TestCyclicTierRedundantSkipped runs the cycle-dense testgen tier through
// the full analysis and pins the end-to-end behavior the tier exists for:
// the ring constraints actually collapse (cycles_collapsed > 0) and the
// deliveries queued to ring members before their collapse are
// short-circuited afterwards (redundant_deliveries_skipped > 0) — at the
// default solver setting and identically-resulting at every worker count.
func TestCyclicTierRedundantSkipped(t *testing.T) {
	spec := testgen.GenCyclicProject(7, 3, 5)
	project := &modules.Project{
		Name:        "cyclic-tier",
		Files:       spec.Files,
		MainEntries: spec.Entries,
		MainPrefix:  "/app",
	}

	ref, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Structure.CyclesCollapsed == 0 {
		t.Fatal("cyclic tier collapsed no cycles — rings did not form constraint cycles")
	}
	if ref.Structure.RedundantSkipped == 0 {
		t.Fatal("cyclic tier skipped no redundant deliveries — the counter's regression workload is dead")
	}

	for _, workers := range workerCounts {
		got, err := Analyze(project, Options{Mode: Baseline, SolverWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Graph.Equal(ref.Graph) {
			t.Fatalf("workers %d: call graph differs from the default run on cyclic tier", workers)
		}
		if got.Structure.RedundantSkipped == 0 {
			t.Fatalf("workers %d: no redundant deliveries skipped on cyclic tier", workers)
		}
		if got.Structure.CyclesCollapsed == 0 {
			t.Fatalf("workers %d: no cycles collapsed on cyclic tier", workers)
		}
	}
}

// TestGenCyclicProjectDeterministic pins generator determinism (the fuzz
// and corpus machinery both rely on equal seeds meaning equal projects)
// and the clamping of degenerate shape arguments.
func TestGenCyclicProjectDeterministic(t *testing.T) {
	a := testgen.GenCyclicProject(11, 2, 4)
	b := testgen.GenCyclicProject(11, 2, 4)
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ: %d vs %d", len(a.Files), len(b.Files))
	}
	for path, src := range a.Files {
		if b.Files[path] != src {
			t.Fatalf("%s differs between equal-seed generations", path)
		}
	}
	small := testgen.GenCyclicProject(1, 0, 0)
	if len(small.Files) != 3 { // 1 ring of 2 modules + entry
		t.Fatalf("clamped generation has %d files, want 3", len(small.Files))
	}
}
