package experiments

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/fuzz"
	"repro/internal/static"
)

// soundnessSolverWorkers selects the solver engine for the corpus
// soundness sweep via REPRO_SOLVER_WORKERS, so CI can run the identical
// oracle with concurrent epoch-engine workers. The known-gap snapshot must
// hold verbatim for every value: every worker count produces identical
// call graphs.
func soundnessSolverWorkers(t *testing.T) int {
	v := os.Getenv("REPRO_SOLVER_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		t.Fatalf("REPRO_SOLVER_WORKERS=%q: want a non-negative integer", v)
	}
	t.Logf("solver workers: %d", n)
	return n
}

// knownSoundnessGaps lists the dynamic call-graph edges the extended
// analysis is known to miss, per benchmark, as "site -> target [bucket]"
// strings. Currently EMPTY: the last three residual gaps — all
// missing-hint, caused by the approximate interpretation never seeding the
// test-entry modules its dynamic ground truth executes — closed when the
// pre-analysis worklist started including Project.TestEntries. A new entry
// appearing here means a soundness regression; file the minimized
// reproducer via cmd/fuzz before pinning it.
var knownSoundnessGaps = map[string][]string{}

// TestCorpusSoundnessOracle checks the fuzzer's soundness oracle — every
// dynamically observed call edge must be in the extended static graph —
// across all corpus benchmarks that have dynamic call graphs, and compares
// the missing-edge set against the snapshot above.
func TestCorpusSoundnessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep; skipped with -short")
	}
	solverWorkers := soundnessSolverWorkers(t)
	checked := 0
	for _, b := range corpus.All() {
		if !b.HasDynCG {
			continue
		}
		checked++
		name := b.Project.Name
		dr, err := dynGraph(b, dyncg.Options{})
		if err != nil {
			t.Fatalf("%s: dyncg: %v", name, err)
		}
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", name, err)
		}
		_, ext, err := static.AnalyzeBoth(b.Project, static.Options{
			Mode: static.WithHints, Hints: ar.Hints, EvalHints: true,
			SolverWorkers: solverWorkers,
		})
		if err != nil {
			t.Fatalf("%s: static: %v", name, err)
		}
		var got []string
		for _, e := range fuzz.MissingDynamicEdges(ext.Graph, dr.Graph) {
			bucket := fuzz.ClassifyEdge(b.Project.Files, e.Site, e.Target)
			got = append(got, fmt.Sprintf("%s -> %s [%s]", e.Site, e.Target, bucket))
		}
		want := knownSoundnessGaps[name]
		for _, g := range diff(got, want) {
			t.Errorf("%s: NEW missing dynamic edge (soundness regression): %s", name, g)
		}
		for _, g := range diff(want, got) {
			t.Errorf("%s: known gap no longer missing (recall improved — update knownSoundnessGaps): %s", name, g)
		}
	}
	if checked == 0 {
		t.Fatal("no benchmarks with dynamic call graphs in the corpus")
	}
	t.Logf("soundness oracle checked on %d benchmarks", checked)
}

// diff returns the elements of a not present in b.
func diff(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
