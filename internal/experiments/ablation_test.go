package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/modules"
	"repro/internal/static"
)

// ablationFromScratch is the test oracle for the §4 ablation row of one
// dynamic-CG project: its own pre-analysis, the relational and name-only arms as
// two from-scratch analyses, and its own dynamic call graph. Degraded
// modules (faulted pre-analysis) are dropped from both arms exactly as the
// main run drops them.
func ablationFromScratch(t *testing.T, p *modules.Project, aopts approx.Options) *AblationOutcome {
	t.Helper()
	name := p.Name
	ar, err := approx.Run(p, aopts)
	if err != nil {
		t.Fatalf("%s: approx: %v", name, err)
	}
	degrade := ar.FaultedModules()
	rel, err := static.Analyze(p, static.Options{
		Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: degrade,
	})
	if err != nil {
		t.Fatalf("%s: relational: %v", name, err)
	}
	abl := rel
	if static.WriteHintsApply(ar.Hints.WithoutFiles(degrade)) {
		// Only [DPW] write hints distinguish the two arms; without them the
		// name-only system is the relational one.
		abl, err = static.Analyze(p, static.Options{
			Mode: static.AblationNameOnly, Hints: ar.Hints, DegradeFiles: degrade,
		})
		if err != nil {
			t.Fatalf("%s: name-only: %v", name, err)
		}
	}
	dr, err := dyncg.Build(p, dyncg.Options{})
	if err != nil {
		t.Fatalf("%s: dyncg: %v", name, err)
	}
	return &AblationOutcome{
		Name:                  name,
		RelationalEdges:       rel.Graph.NumEdges(),
		NameOnlyEdges:         abl.Graph.NumEdges(),
		RelationalMonomorphic: rel.Metrics().MonomorphicPct,
		NameOnlyMonomorphic:   abl.Metrics().MonomorphicPct,
		RelationalPrecision:   callgraph.CompareWithDynamic(rel.Graph, dr.Graph).Precision,
		NameOnlyPrecision:     callgraph.CompareWithDynamic(abl.Graph, dr.Graph).Precision,
	}
}

// sameRow compares two ablation rows: counts exactly, percentages to within
// rounding, since CompareWithDynamic sums per-site precision in map order.
func sameRow(a, b *AblationOutcome) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	return a.Name == b.Name &&
		a.RelationalEdges == b.RelationalEdges && a.NameOnlyEdges == b.NameOnlyEdges &&
		near(a.RelationalMonomorphic, b.RelationalMonomorphic) &&
		near(a.NameOnlyMonomorphic, b.NameOnlyMonomorphic) &&
		near(a.RelationalPrecision, b.RelationalPrecision) &&
		near(a.NameOnlyPrecision, b.NameOnlyPrecision)
}

// ablationRun evaluates bs with the ablation arm on and returns the rows.
func ablationRun(t *testing.T, bs []*corpus.Benchmark) ([]*Outcome, []*AblationOutcome) {
	t.Helper()
	outs, err := RunCorpusOpts(bs, Options{WithDynCG: true, WithAblation: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationRows(outs)
	if err != nil {
		t.Fatal(err)
	}
	return outs, rows
}

// TestAblationRowsMatchFromScratch asserts that the rows the main run
// carries — the relational column from its extended analysis, the
// name-only column from the rolled-back third arm — equal the oracle's two
// from-scratch analyses on every dynamic-CG benchmark.
func TestAblationRowsMatchFromScratch(t *testing.T) {
	_, rows := ablationRun(t, corpus.WithDynCG())
	oracle := corpus.WithDynCG()
	if len(rows) != len(oracle) {
		t.Fatalf("%d ablation rows, want %d", len(rows), len(oracle))
	}
	differ := 0
	for i, b := range oracle {
		want := ablationFromScratch(t, b.Project, approx.Options{})
		if !sameRow(rows[i], want) {
			t.Errorf("%s: ablation row\n got  %+v\n want %+v", b.Project.Name, rows[i], want)
		}
		if want.NameOnlyEdges != want.RelationalEdges {
			differ++
		}
	}
	if differ == 0 {
		t.Error("no benchmark where the two arms differ; the comparison is vacuous")
	}
}

// TestAblationDegradedArm corrupts one library module of a dynamic-CG
// benchmark with a function whose forced call runs past the pre-analysis
// deadline, so the module's hints degrade (a parse fault would fail the
// corpus statistics before any analysis runs). The arm must come from the
// same degraded hints as the extended analysis, so it equals a
// from-scratch name-only analysis with the same DegradeFiles.
func TestAblationDegradedArm(t *testing.T) {
	clean, lib := degradedAblationBenchmark(t)
	b := &corpus.Benchmark{Project: withSpin(clean.Project, lib), HasDynCG: true}
	outs, err := RunCorpusOpts([]*corpus.Benchmark{b}, Options{
		WithDynCG: true, WithAblation: true, Workers: 1, ApproxDeadline: spinDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].DegradedModules; len(got) != 1 || got[0] != lib {
		t.Fatalf("DegradedModules = %v, want [%s]", got, lib)
	}
	rows, err := AblationRows(outs)
	if err != nil {
		t.Fatal(err)
	}
	want := ablationFromScratch(t, withSpin(clean.Project, lib), approx.Options{Deadline: spinDeadline})
	if !sameRow(rows[0], want) {
		t.Errorf("degraded ablation row\n got  %+v\n want %+v", rows[0], want)
	}
	if want.NameOnlyEdges == want.RelationalEdges {
		t.Error("the degraded arms coincide, so no name-only phase ran")
	}
}

// spinDeadline is the per-item pre-analysis deadline of the degraded run:
// far above any corpus item's time, far below the spin's.
const spinDeadline = 200 * time.Millisecond

// withSpin returns a copy of p (fresh parse cache) whose module lib also
// defines a function no test calls and whose forced call recurses
// exponentially: no loop or stack budget stops it, only the deadline.
func withSpin(p *modules.Project, lib string) *modules.Project {
	files := make(map[string]string, len(p.Files))
	for path, src := range p.Files {
		files[path] = src
	}
	files[lib] += "\nfunction spinFor(n) { return n > 0 ? spinFor(n - 1) + spinFor(n - 1) : 0; }\n" +
		"function neverCalled() { return spinFor(64); }\n"
	return &modules.Project{
		Name: p.Name, Files: files,
		MainEntries: p.MainEntries, TestEntries: p.TestEntries, MainPrefix: p.MainPrefix,
	}
}

// degradedAblationBenchmark returns the first dynamic-CG benchmark, and the
// first of its library modules, whose ablation arms can still differ once
// that module's hints are dropped: [DPW] write hints elsewhere survive.
func degradedAblationBenchmark(t *testing.T) (*corpus.Benchmark, string) {
	t.Helper()
	for _, cand := range corpus.WithDynCG() {
		ar, err := approx.Run(cand.Project, approx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var libs []string
		for path := range cand.Project.Files {
			if strings.Contains(path, "/node_modules/") {
				libs = append(libs, path)
			}
		}
		sort.Strings(libs)
		for _, lib := range libs {
			if static.WriteHintsApply(ar.Hints.WithoutFiles(map[string]bool{lib: true})) {
				return cand, lib
			}
		}
	}
	t.Fatal("no dyn-CG library module whose degradation leaves [DPW] write hints")
	return nil, ""
}

// TestRunAblation checks the §4 claim on the motivating example: the
// name-only strawman never has fewer edges, nor more monomorphic sites,
// than relational [DPW] hints.
func TestRunAblation(t *testing.T) {
	_, rows := ablationRun(t, []*corpus.Benchmark{corpus.ByName("motivating-express")})
	if len(rows) != 1 {
		t.Fatalf("%d ablation rows, want 1", len(rows))
	}
	o := rows[0]
	if o.NameOnlyEdges < o.RelationalEdges {
		t.Errorf("name-only should have at least as many edges: %d vs %d",
			o.NameOnlyEdges, o.RelationalEdges)
	}
	if o.NameOnlyMonomorphic > o.RelationalMonomorphic {
		t.Errorf("name-only should be no more monomorphic: %.1f vs %.1f",
			o.NameOnlyMonomorphic, o.RelationalMonomorphic)
	}
}

// TestAblationRowsNeedArm asserts that a dynamic-CG outcome evaluated
// without the ablation arm is refused rather than rendered with zeros.
func TestAblationRowsNeedArm(t *testing.T) {
	outs, err := RunCorpusOpts([]*corpus.Benchmark{corpus.ByName("motivating-express")},
		Options{WithDynCG: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AblationRows(outs); err == nil {
		t.Error("AblationRows accepted an outcome run without WithAblation")
	}
}

// TestDynCGMemoBuildsOnce asserts that one evaluation with the ablation
// arm builds a project's dynamic call graph exactly once, and that nothing
// outlives the evaluation: a second evaluation of the same project builds
// it again.
func TestDynCGMemoBuildsOnce(t *testing.T) {
	builds := 0
	saved := buildDynCG
	buildDynCG = func(p *modules.Project, opts dyncg.Options) (*dyncg.Result, error) {
		builds++
		return saved(p, opts)
	}
	defer func() { buildDynCG = saved }()

	// A benchmark whose ablation arms differ, so the name-only precision
	// is computed against the dynamic graph of its own arm.
	var b *corpus.Benchmark
	for _, cand := range corpus.WithDynCG() {
		ar, err := approx.Run(cand.Project, approx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if static.WriteHintsApply(ar.Hints) {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("no dyn-CG benchmark with [DPW] write hints available")
	}
	for eval := 1; eval <= 2; eval++ {
		builds = 0
		ablationRun(t, []*corpus.Benchmark{b})
		if builds != 1 {
			t.Fatalf("evaluation %d built the dynamic call graph %d times, want 1", eval, builds)
		}
	}
}
