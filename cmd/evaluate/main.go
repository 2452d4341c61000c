// Command evaluate regenerates the paper's evaluation: every table and
// figure of §5 plus the §4 ablation, over the built-in corpus.
//
// Usage:
//
//	evaluate -all                 # everything (141 projects + dyn subset)
//	evaluate -table1 -table2      # selected experiments
//	evaluate -quick -fig4         # dyn-CG subset only (36 projects, fast)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/perf"
)

// runMega runs the mega-tier solver-scaling benchmark (experiments
// .RunMegaBench over the default worker arms) and renders its rows.
func runMega(nModules int) []perf.Row {
	fmt.Printf("Mega-tier solver scaling (workers %v)…\n", experiments.DefaultMegaWorkers)
	bench, err := experiments.RunMegaBench(nModules, experiments.DefaultMegaWorkers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate: mega:", err)
		os.Exit(1)
	}
	bench.Render(os.Stdout)
	return bench.Rows
}

// runDelta runs the persistent-cache delta benchmark (cold / warm /
// one-file-edit corpus evaluations against one cache directory, reports
// asserted byte-identical in-harness) and renders its rows.
func runDelta(cacheDir string, opts experiments.Options) []perf.Row {
	dir := cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "repro-cache-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("Delta benchmark (cache dir %s)…\n", dir)
	bench, err := experiments.RunDeltaBench(dir, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate: delta:", err)
		os.Exit(1)
	}
	bench.Render(os.Stdout)
	return bench.Rows
}

// writeBench merges rows into the bench snapshot at path, replacing the
// rows of their workload and keeping the file's other rows.
func writeBench(path string, rows []perf.Row) {
	if err := perf.MergeFile(path, rows); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "restrict to the 36 dyn-CG benchmarks")
		table1   = flag.Bool("table1", false, "Table 1: benchmark inventory")
		fig4     = flag.Bool("fig4", false, "Figure 4: call edges")
		fig5     = flag.Bool("fig5", false, "Figure 5: reachable functions")
		fig6     = flag.Bool("fig6", false, "Figure 6: resolved call sites")
		fig7     = flag.Bool("fig7", false, "Figure 7: monomorphic call sites")
		table2   = flag.Bool("table2", false, "Table 2: recall/precision")
		table3   = flag.Bool("table3", false, "Table 3: running times")
		vuln     = flag.Bool("vuln", false, "vulnerability reachability study")
		hintsF   = flag.Bool("hints", false, "hint statistics")
		ablation = flag.Bool("ablation", false, "relational vs name-only hints (§4)")
		exts     = flag.Bool("extensions", false, "§6 extensions: unknown-arg hints, eval-code hints, hint reuse")
		scale    = flag.Bool("scale", false, "scalability: per-phase time by program size")
		summary  = flag.Bool("summary", false, "aggregate summary statistics")
		whyMiss  = flag.Bool("why-missed", false, "root-cause every dynamic edge the extended static graph misses (provenance engine) and print the ranked fix list")
		csvDir   = flag.String("csv", "", "also write figure/table data as CSV files into this directory")
		workers  = flag.Int("workers", 0, "parallel benchmark workers (0 = NumCPU)")
		solverW  = flag.Int("solver-workers", 0, "epoch-engine scan workers per benchmark (0 and 1 both mean one worker — reports are identical at every value)")
		mega     = flag.Bool("mega", false, "run the mega-tier solver-scaling benchmark instead of the corpus experiments; with -benchjson its rows (mega/w1, w2, w4) go into the bench snapshot")
		megaMods = flag.Int("mega-modules", 0, "mega-tier module count (0 = corpus.DefaultMegaModules)")
		cacheDir = flag.String("cache-dir", "", "persistent artifact cache directory (hint sets, solved outcomes); created if missing — a second run against the same directory reuses everything that still matches")
		delta    = flag.Bool("delta", false, "run the cache delta benchmark (cold/warm/one-file-edit corpus runs, byte-identical reports asserted) instead of the corpus experiments; uses -cache-dir or a temp dir, and with -benchjson its rows (delta/cold, warm, edit-warm, edit-scratch) go into the bench snapshot")
		perfF    = flag.Bool("perf", false, "print pipeline perf counters (phase times, parse-cache hits, solver effort)")
		benchout = flag.String("benchjson", "", "merge this run's rows into the bench snapshot at this file (e.g. BENCH.json): the rows of the workload run (corpus, -delta or -mega) are replaced, the file's other rows are kept")

		approxDeadline = flag.Duration("approx-deadline", 0, "wall-clock deadline per approximate-interpretation worklist item (0 = unlimited); tripped items become contained faults and their modules degrade to baseline-only hints")
		dyncgDeadline  = flag.Duration("dyncg-deadline", 0, "wall-clock deadline per dynamic-call-graph entry module (0 = unlimited)")
	)
	flag.Parse()

	if *all {
		*table1, *fig4, *fig5, *fig6, *fig7 = true, true, true, true, true
		*table2, *table3, *vuln, *hintsF, *ablation, *summary = true, true, true, true, true, true
		*exts = true
		*scale = true
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.NumCPU()
	}
	if *mega || *delta {
		var rows []perf.Row
		if *mega {
			rows = runMega(*megaMods)
		} else {
			rows = runDelta(*cacheDir, experiments.Options{Workers: nWorkers, SolverWorkers: *solverW})
		}
		if *benchout != "" {
			writeBench(*benchout, rows)
		}
		return
	}
	if *whyMiss {
		benches := corpus.All()
		if *quick {
			benches = corpus.WithDynCG()
		}
		rep, err := experiments.RunWhyMissed(benches, *solverW)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: why-missed:", err)
			os.Exit(1)
		}
		experiments.Banner(os.Stdout, "Why is an edge missing?")
		experiments.RenderWhyMissed(os.Stdout, rep)
		if rep.Unattributed() > 0 {
			fmt.Fprintf(os.Stderr, "evaluate: %d missed edge(s) unattributed\n", rep.Unattributed())
			os.Exit(1)
		}
		return
	}
	if !(*table1 || *fig4 || *fig5 || *fig6 || *fig7 || *table2 || *table3 || *vuln || *hintsF || *ablation || *summary || *exts || *scale) {
		flag.Usage()
		os.Exit(2)
	}

	benches := corpus.All()
	if *quick {
		benches = corpus.WithDynCG()
	}
	// The ablation table's precision column compares against dynamic call
	// graphs too.
	needDyn := *table2 || *table3 || *vuln || *summary || *ablation

	var store *cache.Store
	if *cacheDir != "" {
		var err error
		if store, err = cache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
	}
	perf.Global().Reset()
	start := time.Now()

	fmt.Printf("Evaluating %d benchmarks (dynamic call graphs: %v, workers: %d)…\n", len(benches), needDyn, nWorkers)
	outs, err := experiments.RunCorpusOpts(benches, experiments.Options{
		WithDynCG:      needDyn,
		Workers:        nWorkers,
		ApproxDeadline: *approxDeadline,
		DynCGDeadline:  *dyncgDeadline,
		WithAblation:   *ablation,
		SolverWorkers:  *solverW,
		Cache:          store,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
	w := os.Stdout

	// Contained failures are reported, never fatal: one bad module degrades
	// that module's hints, not the run.
	for _, o := range outs {
		for _, f := range o.Faults {
			fmt.Fprintf(os.Stderr, "evaluate: %s: contained fault: %s\n", o.Name, f)
		}
		if len(o.DegradedModules) > 0 {
			fmt.Fprintf(os.Stderr, "evaluate: %s: %d module(s) degraded to baseline-only hints\n",
				o.Name, len(o.DegradedModules))
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		writeCSV := func(name string, render func(w *os.File)) {
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "evaluate:", err)
				os.Exit(1)
			}
			render(f)
			f.Close()
			fmt.Printf("wrote %s\n", filepath.Join(*csvDir, name))
		}
		for fig := 4; fig <= 7; fig++ {
			fig := fig
			writeCSV(fmt.Sprintf("figure%d.csv", fig), func(f *os.File) {
				experiments.WriteFigureCSV(f, outs, fig)
			})
		}
		writeCSV("table2.csv", func(f *os.File) { experiments.WriteTable2CSV(f, outs) })
	}

	if *table1 {
		experiments.Banner(w, "Table 1")
		experiments.RenderTable1(w, outs)
	}
	figFlags := []struct {
		num int
		on  *bool
	}{{4, fig4}, {5, fig5}, {6, fig6}, {7, fig7}}
	for _, f := range figFlags {
		if *f.on {
			experiments.Banner(w, fmt.Sprintf("Figure %d", f.num))
			experiments.RenderFigure(w, outs, f.num)
		}
	}
	if *table2 {
		experiments.Banner(w, "Table 2")
		experiments.RenderTable2(w, outs)
	}
	if *table3 {
		experiments.Banner(w, "Table 3")
		experiments.RenderTable3(w, outs)
	}
	if *vuln {
		// The dyn-CG subset of the evaluated benchmarks; VulnStudy pairs
		// each with its outcome by name.
		var dynBenches []*corpus.Benchmark
		for _, b := range benches {
			if b.HasDynCG {
				dynBenches = append(dynBenches, b)
			}
		}
		experiments.Banner(w, "Vulnerability reachability")
		vr, err := experiments.VulnStudy(dynBenches, outs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: vuln study:", err)
			os.Exit(1)
		}
		experiments.RenderVuln(w, vr)
	}
	if *hintsF {
		experiments.Banner(w, "Hint statistics")
		experiments.RenderHintStats(w, outs)
	}
	if *ablation {
		experiments.Banner(w, "Ablation (§4)")
		abl, err := experiments.AblationRows(outs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: ablation:", err)
			os.Exit(1)
		}
		experiments.RenderAblation(w, abl)
	}
	if *exts {
		// Outcomes of the main corpus run, by benchmark name. The §6
		// extension runs reuse the extended (relational-hints) analysis from
		// them instead of re-solving the identical constraint system; reuse
		// is declined per benchmark when the outcome saw faults or
		// degradation.
		outByName := map[string]*experiments.Outcome{}
		for _, o := range outs {
			outByName[o.Name] = o
		}
		experiments.Banner(w, "§6 extensions")
		eo, err := experiments.RunExtensionsCorpus(corpus.WithDynCG()[:12], outByName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: extensions:", err)
			os.Exit(1)
		}
		experiments.RenderExtensions(w, eo)
	}
	if *scale {
		experiments.Banner(w, "Scalability")
		experiments.RenderScalability(w, experiments.Scalability(outs))
	}
	if *summary {
		experiments.Banner(w, "Summary (§5 headline numbers)")
		experiments.RenderSummary(w, experiments.Aggregate(outs))
	}

	if *perfF || *benchout != "" {
		snap := perf.Global().Snapshot()
		snap.Workers = nWorkers
		snap.WallMS = float64(time.Since(start).Microseconds()) / 1000
		if *perfF {
			experiments.Banner(w, "Perf counters")
			snap.Render(w)
		}
		if *benchout != "" {
			writeBench(*benchout, []perf.Row{{Workload: perf.WorkloadCorpus, SolverWorkers: *solverW,
				Host: perf.ThisHost(), Snapshot: snap}})
		}
	}
}
