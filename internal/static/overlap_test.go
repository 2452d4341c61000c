package static

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/hints"
	"repro/internal/modules"
	"repro/internal/perf"
)

// freshCopy returns p with a parse cache of its own, so an analysis of the
// copy parses every file again. The file map is shared, read-only.
func freshCopy(p *modules.Project) *modules.Project {
	return &modules.Project{Name: p.Name, Files: p.Files, MainEntries: p.MainEntries,
		TestEntries: p.TestEntries, MainPrefix: p.MainPrefix}
}

// approxSource is the pre-analysis of project as a hint source; the result
// it ran is stored in *ar.
func approxSource(project *modules.Project, ar **approx.Result) HintSource {
	return func() (*hints.Hints, map[string]bool, error) {
		r, err := approx.Run(project, approx.Options{})
		if err != nil {
			return nil, nil, err
		}
		*ar = r
		return r.Hints, r.FaultedModules(), nil
	}
}

// sameResult reports how two results of one arm differ: call graph,
// metrics, system size, solver effort and cycle-collapse structure.
func sameResult(t *testing.T, arm string, want, got *Result) {
	t.Helper()
	if !want.Graph.Equal(got.Graph) {
		t.Errorf("%s: call graphs differ (%d vs %d edges)", arm, want.Graph.NumEdges(), got.Graph.NumEdges())
	}
	if want.Metrics() != got.Metrics() {
		t.Errorf("%s: metrics differ: %v vs %v", arm, want.Metrics(), got.Metrics())
	}
	if want.NumVars != got.NumVars || want.NumTokens != got.NumTokens ||
		want.SolveIterations != got.SolveIterations || want.TokensDelivered != got.TokensDelivered ||
		want.Structure != got.Structure {
		t.Errorf("%s: size or effort differs: %d vars/%d tokens/%d iters/%d delivered/%+v vs %d/%d/%d/%d/%+v", arm,
			want.NumVars, want.NumTokens, want.SolveIterations, want.TokensDelivered, want.Structure,
			got.NumVars, got.NumTokens, got.SolveIterations, got.TokensDelivered, got.Structure)
	}
	if !slices.Equal(want.DegradedModules, got.DegradedModules) {
		t.Errorf("%s: degraded modules differ: %v vs %v", arm, want.DegradedModules, got.DegradedModules)
	}
}

// TestOverlappedMatchesSequential runs every corpus project twice: the
// pre-analysis first and then the incremental solve over its hints, and
// the pre-analysis as the hint source running concurrently with the
// baseline phase, on a copy of the project that parses afresh. Dynamic-CG
// projects take the three-arm path, as the corpus driver does. Every arm
// must match, effort counters included, at one and at four solver workers,
// and the hints must be byte-identical. Projects run over a small worker
// pool, so -race sees overlapped analyses side by side.
func TestOverlappedMatchesSequential(t *testing.T) {
	benches := corpus.All()
	if testing.Short() {
		benches = benches[:24]
	}
	workers := min(max(runtime.NumCPU(), 2), 4)
	var wg sync.WaitGroup
	work := make(chan *corpus.Benchmark)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				t.Run(b.Project.Name, func(t *testing.T) { checkOverlapped(t, b) })
			}
		}()
	}
	for _, b := range benches {
		work <- b
	}
	close(work)
	wg.Wait()
}

func checkOverlapped(t *testing.T, b *corpus.Benchmark) {
	seq, err := approx.Run(b.Project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantHints bytes.Buffer
	if err := seq.Hints.WriteJSON(&wantHints); err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: WithHints, Hints: seq.Hints, DegradeFiles: seq.FaultedModules()}
	var base, ext, abl *Result
	if b.HasDynCG {
		base, ext, abl, err = AnalyzeBothAndAblationFrom(b.Project, opts, opts.hintSource())
	} else {
		base, ext, err = AnalyzeBoth(b.Project, opts)
	}
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{0, 4} {
		project := freshCopy(b.Project)
		var ar *approx.Result
		src := approxSource(project, &ar)
		oopts := Options{Mode: WithHints, SolverWorkers: w}
		var obase, oext, oabl *Result
		if b.HasDynCG {
			obase, oext, oabl, err = AnalyzeBothAndAblationFrom(project, oopts, src)
		} else {
			obase, oext, err = AnalyzeBothFrom(project, oopts, src)
		}
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		var gotHints bytes.Buffer
		if err := ar.Hints.WriteJSON(&gotHints); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantHints.Bytes(), gotHints.Bytes()) {
			t.Errorf("workers %d: overlapped pre-analysis produced different hints", w)
		}
		sameResult(t, "baseline", base, obase)
		sameResult(t, "extended", ext, oext)
		if b.HasDynCG {
			sameResult(t, "ablation", abl, oabl)
		}
	}
}

// TestHintSourcePanicReraised: a panic in the hint source is re-raised on
// the caller, with its value, once the source has unwound.
func TestHintSourcePanicReraised(t *testing.T) {
	var unwound atomic.Bool
	src := func() (*hints.Hints, map[string]bool, error) {
		defer unwound.Store(true)
		time.Sleep(20 * time.Millisecond)
		panic("source exploded")
	}
	defer func() {
		if r := recover(); r != "source exploded" {
			t.Fatalf("recovered %v, want the source's panic value", r)
		}
		if !unwound.Load() {
			t.Fatal("the caller resumed before the source unwound")
		}
	}()
	AnalyzeBothFrom(motivating(), Options{Mode: WithHints}, src)
	t.Fatal("AnalyzeBothFrom returned instead of re-raising the source's panic")
}

// TestHintSourceErrorAfterPhase1: a failing source's error is what the call
// returns, and only after the baseline phase ran to its end (it parsed
// every file) and the source returned.
func TestHintSourceErrorAfterPhase1(t *testing.T) {
	errSource := errors.New("source failed")
	var returned atomic.Bool
	src := func() (*hints.Hints, map[string]bool, error) {
		defer returned.Store(true)
		time.Sleep(20 * time.Millisecond)
		return nil, nil, errSource
	}
	project := motivating()
	parses0 := perf.Global().Snapshot().Parses
	base, ext, abl, err := AnalyzeBothAndAblationFrom(project, Options{Mode: WithHints}, src)
	if err != errSource || base != nil || ext != nil || abl != nil {
		t.Fatalf("got %v (results %v %v %v), want the source's error and no results", err, base, ext, abl)
	}
	if !returned.Load() {
		t.Fatal("returned before the source did")
	}
	if parsed := perf.Global().Snapshot().Parses - parses0; parsed < int64(len(project.Files)) {
		t.Errorf("phase 1 parsed %d files, want at least the project's %d", parsed, len(project.Files))
	}
}

// TestDeltaSessionAnalyzeFrom: the session runs its source once per
// analysis, overlapped after an edit and on the caller for a no-op delta,
// which still reuses the memo; a failing source leaves no memo behind.
func TestDeltaSessionAnalyzeFrom(t *testing.T) {
	s := NewDeltaSession(deltaProject())
	calls := 0
	var fail error
	src := func() (*hints.Hints, map[string]bool, error) {
		calls++
		return hints.New(), nil, fail
	}
	opts := Options{Mode: WithHints}
	if _, _, reused, err := s.AnalyzeFrom(opts, src); err != nil || reused {
		t.Fatalf("first analysis: reused=%t err=%v", reused, err)
	}
	s.Update(map[string]string{"/app/index.js": "var lib = require('./lib');\nlib.extra();\n"}, nil)
	_, ext, reused, err := s.AnalyzeFrom(opts, src)
	if err != nil || reused {
		t.Fatalf("edit: reused=%t err=%v", reused, err)
	}
	_, ext2, reused, err := s.AnalyzeFrom(opts, src)
	if err != nil || !reused || ext2 != ext {
		t.Fatalf("no-op delta after an overlapped edit: reused=%t err=%v", reused, err)
	}
	if calls != 3 {
		t.Errorf("source ran %d times, want once per analysis (3)", calls)
	}

	fail = errors.New("source failed")
	s.Update(map[string]string{"/app/index.js": "var lib = require('./lib');\nlib.go();\n"}, nil)
	if _, _, _, err := s.AnalyzeFrom(opts, src); err != fail {
		t.Fatalf("failing source: err=%v, want its error", err)
	}
	fail = nil
	if _, _, reused, err := s.AnalyzeFrom(opts, src); err != nil || reused {
		t.Fatalf("after a failed analysis: reused=%t err=%v, want a fresh solve", reused, err)
	}
}
