package static

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
)

// reachEqual compares two reachable-function sets.
func reachEqual(a, b map[callgraph.FuncID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if !b[f] {
			return false
		}
	}
	return true
}

// checkEquivalent asserts the full equivalence contract of AnalyzeBoth on
// one benchmark: the baseline snapshot matches a standalone baseline run
// (call graph, metrics, reachability, and — because the baseline phase is
// the identical code path — the exact solver-effort counters), and the
// resumed extended result matches a from-scratch extended run (call graph,
// metrics, reachability, and final constraint-system size; effort counters
// legitimately differ, that being the optimization).
func checkEquivalent(t *testing.T, b *corpus.Benchmark, opts Options) {
	t.Helper()
	ar, err := approx.Run(b.Project, approx.Options{})
	if err != nil {
		t.Fatalf("approx: %v", err)
	}
	opts.Hints = ar.Hints

	base1, err := Analyze(b.Project, Options{Mode: Baseline})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ext1, err := Analyze(b.Project, opts)
	if err != nil {
		t.Fatalf("extended: %v", err)
	}
	base2, ext2, err := AnalyzeBoth(b.Project, opts)
	if err != nil {
		t.Fatalf("AnalyzeBoth: %v", err)
	}

	// Baseline snapshot vs standalone baseline.
	if !base1.Graph.Equal(base2.Graph) {
		t.Errorf("baseline call graphs differ (standalone %d edges, snapshot %d)",
			base1.Graph.NumEdges(), base2.Graph.NumEdges())
	}
	if m1, m2 := base1.Metrics(), base2.Metrics(); m1 != m2 {
		t.Errorf("baseline metrics differ: standalone %v, snapshot %v", m1, m2)
	}
	if !reachEqual(base1.Graph.Reachable(base1.MainEntries), base2.Graph.Reachable(base2.MainEntries)) {
		t.Errorf("baseline reachable sets differ")
	}
	if base1.NumVars != base2.NumVars || base1.NumTokens != base2.NumTokens {
		t.Errorf("baseline system size differs: standalone %d vars/%d tokens, snapshot %d/%d",
			base1.NumVars, base1.NumTokens, base2.NumVars, base2.NumTokens)
	}
	if base1.SolveIterations != base2.SolveIterations || base1.TokensDelivered != base2.TokensDelivered {
		t.Errorf("baseline solver effort differs: standalone %d iters/%d tokens, snapshot %d/%d",
			base1.SolveIterations, base1.TokensDelivered, base2.SolveIterations, base2.TokensDelivered)
	}

	// Incremental-resume extended vs from-scratch extended.
	if !ext1.Graph.Equal(ext2.Graph) {
		t.Errorf("extended call graphs differ (from-scratch %d edges, resumed %d)",
			ext1.Graph.NumEdges(), ext2.Graph.NumEdges())
	}
	if m1, m2 := ext1.Metrics(), ext2.Metrics(); m1 != m2 {
		t.Errorf("extended metrics differ: from-scratch %v, resumed %v", m1, m2)
	}
	if !reachEqual(ext1.Graph.Reachable(ext1.MainEntries), ext2.Graph.Reachable(ext2.MainEntries)) {
		t.Errorf("extended reachable sets differ")
	}
	if ext1.NumVars != ext2.NumVars || ext1.NumTokens != ext2.NumTokens {
		t.Errorf("extended system size differs: from-scratch %d vars/%d tokens, resumed %d/%d",
			ext1.NumVars, ext1.NumTokens, ext2.NumVars, ext2.NumTokens)
	}
}

// TestIncrementalMatchesFromScratch is the differential equivalence test
// over the full generated corpus: for every benchmark, the incremental
// baseline→extended resume must produce exactly the outcome of the legacy
// two-pass path. Benchmarks run over a small worker pool, so -race also
// exercises concurrent incremental analyses.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	benches := corpus.All()
	if testing.Short() {
		benches = benches[:24]
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 2 {
		workers = 2 // the race assertion needs real concurrency
	}
	var wg sync.WaitGroup
	work := make(chan *corpus.Benchmark)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				b := b
				t.Run(b.Project.Name, func(t *testing.T) {
					checkEquivalent(t, b, Options{Mode: WithHints})
				})
			}
		}()
	}
	for _, b := range benches {
		work <- b
	}
	close(work)
	wg.Wait()
}

// TestIncrementalMatchesWithExtensions pins the equivalence when the §6
// extensions widen the delta: eval-code hints add generated code and
// unknown-argument hints add property-name loads, both injected after the
// baseline fixpoint in the incremental path.
func TestIncrementalMatchesWithExtensions(t *testing.T) {
	benches := corpus.WithDynCG()
	if len(benches) > 12 {
		benches = benches[:12]
	}
	for _, b := range benches {
		b := b
		t.Run(b.Project.Name, func(t *testing.T) {
			checkEquivalent(t, b, Options{Mode: WithHints, EvalHints: true, UnknownArgHints: true})
		})
	}
}

// TestAnalyzeBothMotivating pins the §2 narrative through the incremental
// path: the baseline snapshot misses the two headline edges and the
// resumed extended graph recovers them.
func TestAnalyzeBothMotivating(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, ext, err := AnalyzeBoth(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	if base.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Errorf("baseline snapshot should miss app.get → method-table edge")
	}
	if !ext.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Errorf("resumed extended graph should find app.get → method-table edge")
	}
	if !ext.Graph.HasEdge(siteAppListen, fnListen) {
		t.Errorf("resumed extended graph should find app.listen → listen edge")
	}
	if ext.SolveIterations <= base.SolveIterations {
		t.Errorf("extended counters should be cumulative: base %d, ext %d",
			base.SolveIterations, ext.SolveIterations)
	}
}

// TestAnalyzeBothRejectsBaseline pins the API contract.
func TestAnalyzeBothRejectsBaseline(t *testing.T) {
	if _, _, err := AnalyzeBoth(motivating(), Options{Mode: Baseline}); err == nil {
		t.Fatal("want error for Mode: Baseline")
	}
	if _, _, err := AnalyzeBoth(motivating(), Options{Mode: WithHints}); err == nil {
		t.Fatal("want error for missing hints")
	}
}
