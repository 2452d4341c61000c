// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (§5), plus micro-
// benchmarks of the pipeline phases. Each benchmark reports the headline
// quantity of its experiment via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's numbers alongside timing data.
//
// The mapping between benchmarks and the paper's tables/figures is
// documented in DESIGN.md §4 and EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/experiments"
	"repro/internal/modules"
	"repro/internal/parser"
	"repro/internal/perf"
	"repro/internal/static"
)

// benchSlice returns a fixed, representative corpus slice so benchmark
// runtimes stay manageable; cmd/evaluate runs the full 141.
func benchSlice(n int) []*corpus.Benchmark {
	bs := corpus.WithDynCG()
	if n > len(bs) {
		n = len(bs)
	}
	return bs[:n]
}

// BenchmarkTable1Corpus regenerates Table 1: the benchmark inventory
// (packages, modules, functions, code size) of the dyn-CG projects.
func BenchmarkTable1Corpus(b *testing.B) {
	bs := corpus.WithDynCG()
	var fns, mods int
	for i := 0; i < b.N; i++ {
		fns, mods = 0, 0
		for _, bench := range bs {
			st, err := corpus.ComputeStats(bench)
			if err != nil {
				b.Fatal(err)
			}
			fns += st.Functions
			mods += st.Modules
		}
	}
	b.ReportMetric(float64(len(bs)), "projects")
	b.ReportMetric(float64(fns), "functions")
	b.ReportMetric(float64(mods), "modules")
}

// benchFigure runs baseline+extended over a slice and reports the averaged
// per-project improvement for one §5 metric.
func benchFigure(b *testing.B, metric func(base, ext *static.Result) (float64, float64), unit string) {
	b.Helper()
	bs := benchSlice(8)
	var avgBase, avgExt float64
	for i := 0; i < b.N; i++ {
		avgBase, avgExt = 0, 0
		for _, bench := range bs {
			ar, err := approx.Run(bench.Project, approx.Options{})
			if err != nil {
				b.Fatal(err)
			}
			base, err := static.Analyze(bench.Project, static.Options{Mode: static.Baseline})
			if err != nil {
				b.Fatal(err)
			}
			ext, err := static.Analyze(bench.Project, static.Options{Mode: static.WithHints, Hints: ar.Hints})
			if err != nil {
				b.Fatal(err)
			}
			mb, me := metric(base, ext)
			avgBase += mb
			avgExt += me
		}
		avgBase /= float64(len(bs))
		avgExt /= float64(len(bs))
	}
	b.ReportMetric(avgBase, "base-"+unit)
	b.ReportMetric(avgExt, "ext-"+unit)
}

// BenchmarkFigure4CallEdges regenerates Figure 4: call edges per program,
// baseline vs extended (paper: +55.1% on average).
func BenchmarkFigure4CallEdges(b *testing.B) {
	benchFigure(b, func(base, ext *static.Result) (float64, float64) {
		return float64(base.Metrics().CallEdges), float64(ext.Metrics().CallEdges)
	}, "edges")
}

// BenchmarkFigure5Reachable regenerates Figure 5: reachable functions
// (paper: +21.8%).
func BenchmarkFigure5Reachable(b *testing.B) {
	benchFigure(b, func(base, ext *static.Result) (float64, float64) {
		return float64(base.Metrics().ReachableFunctions), float64(ext.Metrics().ReachableFunctions)
	}, "reachable")
}

// BenchmarkFigure6Resolved regenerates Figure 6: % resolved call sites
// (paper: +17.7 points).
func BenchmarkFigure6Resolved(b *testing.B) {
	benchFigure(b, func(base, ext *static.Result) (float64, float64) {
		return base.Metrics().ResolvedPct, ext.Metrics().ResolvedPct
	}, "resolved-pct")
}

// BenchmarkFigure7Monomorphic regenerates Figure 7: % monomorphic call
// sites (paper: −1.5 points).
func BenchmarkFigure7Monomorphic(b *testing.B) {
	benchFigure(b, func(base, ext *static.Result) (float64, float64) {
		return base.Metrics().MonomorphicPct, ext.Metrics().MonomorphicPct
	}, "mono-pct")
}

// BenchmarkTable2RecallPrecision regenerates Table 2: call-edge recall and
// per-call precision against dynamic call graphs (paper: recall 75.9% →
// 88.1%, precision −1.5 points).
func BenchmarkTable2RecallPrecision(b *testing.B) {
	bs := benchSlice(8)
	var s experiments.Summary
	for i := 0; i < b.N; i++ {
		outs, err := experiments.RunCorpus(bs, true)
		if err != nil {
			b.Fatal(err)
		}
		s = experiments.Aggregate(outs)
	}
	b.ReportMetric(s.AvgRecallBase, "recall-base-pct")
	b.ReportMetric(s.AvgRecallExt, "recall-ext-pct")
	b.ReportMetric(s.AvgPrecBase, "prec-base-pct")
	b.ReportMetric(s.AvgPrecExt, "prec-ext-pct")
}

// BenchmarkTable3Times regenerates Table 3: running times of the baseline
// analysis, approximate interpretation, and extended analysis.
func BenchmarkTable3Times(b *testing.B) {
	bs := benchSlice(8)
	var approxMS, baseMS, extMS float64
	for i := 0; i < b.N; i++ {
		approxMS, baseMS, extMS = 0, 0, 0
		outs, err := experiments.RunCorpus(bs, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			approxMS += float64(o.ApproxTime.Microseconds()) / 1000
			baseMS += float64(o.BaselineTime.Microseconds()) / 1000
			extMS += float64(o.ExtendedTime.Microseconds()) / 1000
		}
	}
	b.ReportMetric(approxMS, "approx-ms")
	b.ReportMetric(baseMS, "baseline-ms")
	b.ReportMetric(extMS, "extended-ms")
}

// BenchmarkVulnReachability regenerates the §5 vulnerability-reachability
// study (paper: 447 advisories; 52 reachable → 55).
func BenchmarkVulnReachability(b *testing.B) {
	bs := benchSlice(12)
	var vr experiments.VulnResult
	for i := 0; i < b.N; i++ {
		outs, err := experiments.RunCorpus(bs, false)
		if err != nil {
			b.Fatal(err)
		}
		vr, err = experiments.VulnStudy(bs, outs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(vr.TotalVulns), "vulns")
	b.ReportMetric(float64(vr.ReachableBaseline), "reach-base")
	b.ReportMetric(float64(vr.ReachableExtended), "reach-ext")
}

// BenchmarkHintStats regenerates the §5 pre-analysis statistics: hints per
// project and fraction of functions visited (paper: median 1,492 hints,
// ~60% visited).
func BenchmarkHintStats(b *testing.B) {
	bs := benchSlice(12)
	var hintsTotal int
	var visited float64
	for i := 0; i < b.N; i++ {
		hintsTotal, visited = 0, 0
		for _, bench := range bs {
			ar, err := approx.Run(bench.Project, approx.Options{})
			if err != nil {
				b.Fatal(err)
			}
			hintsTotal += ar.Hints.Count()
			visited += ar.VisitedRatio()
		}
		visited /= float64(len(bs))
	}
	b.ReportMetric(float64(hintsTotal), "hints")
	b.ReportMetric(100*visited, "visited-pct")
}

// BenchmarkAblationRelationalHints regenerates the §4 design-choice
// comparison: relational [DPW] hints vs the name-only strawman.
func BenchmarkAblationRelationalHints(b *testing.B) {
	bs := benchSlice(6)
	var relMono, nameMono float64
	for i := 0; i < b.N; i++ {
		relMono, nameMono = 0, 0
		outs, err := experiments.RunCorpusOpts(bs, experiments.Options{
			WithDynCG: true, WithAblation: true, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.AblationRows(outs)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range rows {
			relMono += o.RelationalMonomorphic
			nameMono += o.NameOnlyMonomorphic
		}
		relMono /= float64(len(rows))
		nameMono /= float64(len(rows))
	}
	b.ReportMetric(relMono, "mono-relational-pct")
	b.ReportMetric(nameMono, "mono-nameonly-pct")
}

// BenchmarkMotivatingExample runs the full pipeline on the paper's Fig. 1
// program (§5 compares against FAST here: 12.3% vs 98.5% recall).
func BenchmarkMotivatingExample(b *testing.B) {
	project := corpus.Motivating()
	var recallBase, recallExt float64
	for i := 0; i < b.N; i++ {
		o, err := experiments.RunBenchmark(&corpus.Benchmark{Project: project, HasDynCG: true}, true)
		if err != nil {
			b.Fatal(err)
		}
		recallBase, recallExt = o.BaseAcc.Recall, o.ExtAcc.Recall
	}
	b.ReportMetric(recallBase, "recall-base-pct")
	b.ReportMetric(recallExt, "recall-ext-pct")
}

// BenchmarkHintReuse measures the §6 "reusing approximate interpretation
// results" extension: analyzing many applications that share a library,
// with and without the per-package hint cache. The shared library is
// forcing-heavy (many function definitions with non-trivial bodies), the
// regime where the paper's reuse argument applies — when module top-level
// execution dominates instead, the cache cannot pay off, since every
// application run must execute the initialization code anyway.
func BenchmarkHintReuse(b *testing.B) {
	lib := heavyLibraryProject()
	apps := make([]*modules.Project, 6)
	for i := range apps {
		p := &modules.Project{
			Name:        fmt.Sprintf("heavy-app-%d", i),
			Files:       map[string]string{},
			MainEntries: []string{"/app/index.js"},
			MainPrefix:  "/app",
		}
		for path, src := range lib.Files {
			p.Files[path] = src
		}
		p.Files["/app/index.js"] = fmt.Sprintf(
			"var lib = require('heavy');\nexports.use%d = function use%d(x) { return lib.fn0(x); };\n", i, i)
		apps[i] = p
	}
	b.Run("no-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range apps {
				if _, err := approx.Run(p, approx.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("with-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := approx.NewCache()
			for _, p := range apps {
				if _, err := approx.RunWithCache(p, cache, approx.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// heavyLibraryProject builds a dependency whose cost is dominated by
// forced execution of its many function definitions.
func heavyLibraryProject() *modules.Project {
	var sb strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&sb, `exports.fn%d = function fn%d(x) {
  var acc = 0;
  for (var i = 0; i < 400; i++) { acc += i; }
  var table = {};
  table["k" + %d] = function inner%d(y) { return y + acc; };
  return table["k" + %d](x);
};
`, i, i, i, i, i)
	}
	return &modules.Project{
		Name:        "heavy-lib",
		Files:       map[string]string{"/node_modules/heavy/index.js": sb.String()},
		MainEntries: []string{"/node_modules/heavy/index.js"},
		MainPrefix:  "/node_modules/heavy",
	}
}

// BenchmarkIncrementalResume compares the combined baseline+extended
// analysis (static.AnalyzeBoth: solve the baseline once, inject the
// [DPR]/[DPW] hint deltas, resume to the extended fixpoint) against the
// legacy two-pass path (two from-scratch solves) on a corpus slice. The
// reported wall time is the baseline+extended cost only; approximate
// interpretation is precomputed outside the timed loop.
func BenchmarkIncrementalResume(b *testing.B) {
	bs := benchSlice(12)
	hintsFor := make([]*approx.Result, len(bs))
	for i, bench := range bs {
		ar, err := approx.Run(bench.Project, approx.Options{})
		if err != nil {
			b.Fatal(err)
		}
		hintsFor[i] = ar
	}
	b.Run("twopass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, bench := range bs {
				if _, err := static.Analyze(bench.Project, static.Options{Mode: static.Baseline}); err != nil {
					b.Fatal(err)
				}
				if _, err := static.Analyze(bench.Project, static.Options{Mode: static.WithHints, Hints: hintsFor[j].Hints}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, bench := range bs {
				if _, _, err := static.AnalyzeBoth(bench.Project, static.Options{Mode: static.WithHints, Hints: hintsFor[j].Hints}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPipelineParallel measures the parallel corpus driver against the
// sequential baseline on the same corpus slice, reporting wall time per
// worker count and the parse-cache hit rate. Fresh benchmark sets are built
// every iteration so each run starts with cold parse caches (the cache
// effect being measured is *within* a pipeline run, across its phases).
func BenchmarkPipelineParallel(b *testing.B) {
	const sliceSize = 12
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var wallMS, hitRate float64
			for i := 0; i < b.N; i++ {
				bs := corpus.WithDynCG()[:sliceSize]
				perf.Global().Reset()
				start := time.Now()
				if _, err := experiments.RunCorpusOpts(bs, experiments.Options{WithDynCG: true, Workers: workers}); err != nil {
					b.Fatal(err)
				}
				wallMS = float64(time.Since(start).Microseconds()) / 1000
				hitRate = perf.Global().Snapshot().ParseHitRate
			}
			b.ReportMetric(wallMS, "wall-ms")
			b.ReportMetric(100*hitRate, "parse-hit-pct")
		})
	}
}

// ---------------------------------------------------------- phase micro-benches

// BenchmarkApproxInterpretation times the pre-analysis alone.
func BenchmarkApproxInterpretation(b *testing.B) {
	project := corpus.Motivating()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Run(project, approx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineAnalysis times the baseline static analysis alone.
func BenchmarkBaselineAnalysis(b *testing.B) {
	project := corpus.Motivating()
	for i := 0; i < b.N; i++ {
		if _, err := static.Analyze(project, static.Options{Mode: static.Baseline}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendedAnalysis times hint injection + solving.
func BenchmarkExtendedAnalysis(b *testing.B) {
	project := corpus.Motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := static.Analyze(project, static.Options{Mode: static.WithHints, Hints: ar.Hints}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicCallGraph times dynamic call-graph construction.
func BenchmarkDynamicCallGraph(b *testing.B) {
	project := corpus.Motivating()
	for i := 0; i < b.N; i++ {
		if _, err := dyncg.Build(project, dyncg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParser times the front end on the whole motivating project.
func BenchmarkParser(b *testing.B) {
	project := corpus.Motivating()
	var total int
	for i := 0; i < b.N; i++ {
		for path, src := range project.Files {
			prog, err := parser.Parse(path, src)
			if err != nil {
				b.Fatal(err)
			}
			total += len(prog.Body)
		}
	}
	_ = total
}

// BenchmarkConcreteInterpreter times plain concrete execution of the
// motivating project (module loading + top-level code).
func BenchmarkConcreteInterpreter(b *testing.B) {
	project := corpus.Motivating()
	for i := 0; i < b.N; i++ {
		it := newInterp()
		registry := modules.NewRegistry(project, it)
		for _, e := range project.MainEntries {
			if _, err := registry.Load(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScalability regenerates the size-vs-time curve supporting
// Table 3's scalability claim.
func BenchmarkScalability(b *testing.B) {
	bs := benchSlice(10)
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		outs, err := experiments.RunCorpus(bs, false)
		if err != nil {
			b.Fatal(err)
		}
		rows = experiments.Scalability(outs)
	}
	for _, r := range rows {
		if r.Projects > 0 {
			b.ReportMetric(float64(r.AvgApprox.Microseconds())/1000, "approx-ms-"+r.Tier[:4])
		}
	}
}
