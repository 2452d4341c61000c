package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/experiments"
	"repro/internal/static"
)

// coldPassSeconds is one corpus-cold pass (141 projects) on the reference
// 2-core host; --seconds becomes a whole number of passes.
const coldPassSeconds = 3.2

// coldWarmup is how many projects corpus-cold's set-up evaluates.
const coldWarmup = 8

// coldOutcome is the content of one project's evaluation: every Outcome
// field except the measured phase durations.
type coldOutcome struct {
	Stats        corpus.Stats
	HintCount    int
	VisitedRatio float64
	Base, Ext    callgraph.Metrics
	HasDynCG     bool
	DynEdges     int
	BaseAcc      callgraph.Accuracy
	ExtAcc       callgraph.Accuracy
}

func outcomeContent(o *experiments.Outcome) coldOutcome {
	return coldOutcome{
		Stats: o.Stats, HintCount: o.HintCount, VisitedRatio: o.VisitedRatio,
		Base: o.Base, Ext: o.Ext, HasDynCG: o.HasDynCG, DynEdges: o.DynEdges,
		BaseAcc: o.BaseAcc, ExtAcc: o.ExtAcc,
	}
}

// coldArm is one pass loop of corpus-cold, traced when tr is non-nil.
type coldArm struct {
	tr     *tracer
	opMS   []float64
	failed int
	// layer accounting of a traced arm
	hints               int
	visited             float64
	solveMS             float64
	dynEdges            int
	parseBytes, parseMS float64
}

func runCorpusCold(cfg config) (*runStats, error) {
	st := &runStats{}
	order := permutation(cfg.seed, corpus.Size)
	passes := int(math.Round(float64(cfg.seconds) / coldPassSeconds))
	if passes < 1 {
		passes = 1
	}
	// Set-up: generate the corpus and warm the pipeline on its first
	// projects, unmeasured.
	for r := 0; r < setupReps[cfg.workload]; r++ {
		start := time.Now()
		for _, b := range corpus.All()[:coldWarmup] {
			if _, err := experiments.RunBenchmark(b, true); err != nil {
				return nil, err
			}
		}
		st.setupS = append(st.setupS, time.Since(start).Seconds())
	}

	want := map[string]coldOutcome{}
	e0 := readEffort()
	untraced := &coldArm{}
	untraced.run(order, passes, want)
	eff := readEffort().sub(e0)
	st.opMS, st.attempted, st.failed = untraced.opMS, len(untraced.opMS), untraced.failed
	st.counters = eff.exact()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	st.peakRSSMB = rss
	if !cfg.trace {
		return st, nil
	}

	// Traced run: live heap after the untraced loop (dyn-CG memo
	// retention), then the same op sequence again with spans.
	st.layers = map[string]float64{"experiments.live_heap_mb": liveHeapMB()}
	traced := &coldArm{tr: newTracer()}
	e1 := readEffort()
	traced.run(order, passes, want)
	teff := readEffort().sub(e1)
	st.attempted += len(traced.opMS)
	st.failed += traced.failed
	if !reflect.DeepEqual(teff.exact(), eff.exact()) {
		st.checkErr = fmt.Errorf("traced counters %v differ from untraced %v", teff.exact(), eff.exact())
	}
	n := float64(len(traced.opMS))
	teff.layers(st.layers)
	st.layers["approx.hints"] = float64(traced.hints)
	st.layers["approx.visited_ratio"] = traced.visited / n
	st.layers["static.solve_ms"] = traced.solveMS / n
	st.layers["dyncg.edges"] = float64(traced.dynEdges)
	st.layers["parse.kb_per_ms"] = traced.parseBytes / 1024 / traced.parseMS
	finishTrace(cfg, st, traced.tr, untraced.opMS, traced.opMS)
	return st, nil
}

// run evaluates the corpus passes times in the given order, on freshly
// generated project values each pass (generation is not timed). want holds
// each project's outcome from its first evaluation; every later one must
// equal it.
func (a *coldArm) run(order []int, passes int, want map[string]coldOutcome) {
	for p := 0; p < passes; p++ {
		bs := corpus.All()
		for _, idx := range order {
			b := bs[idx]
			opID := len(a.opMS)
			var got coldOutcome
			var err error
			start := time.Now()
			if a.tr == nil {
				var o *experiments.Outcome
				if o, err = experiments.RunBenchmark(b, true); err == nil {
					got = outcomeContent(o)
					if len(o.Faults) > 0 || len(o.DegradedModules) > 0 {
						err = fmt.Errorf("%s: %d faults, %d degraded modules", o.Name, len(o.Faults), len(o.DegradedModules))
					}
				}
			} else {
				got, err = a.tracedOp(b, opID)
			}
			a.opMS = append(a.opMS, msSince(start))
			if err == nil {
				err = checkCold(b.Project.Name, got, want)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: corpus-cold:", err)
				a.failed++
			}
		}
	}
}

// checkCold checks one outcome: the extended graph only adds to the
// baseline's, and the outcome repeats the project's first one.
func checkCold(name string, got coldOutcome, want map[string]coldOutcome) error {
	if got.Ext.CallEdges < got.Base.CallEdges || got.Ext.ReachableFunctions < got.Base.ReachableFunctions {
		return fmt.Errorf("%s: extended graph smaller than baseline (%v vs %v)", name, got.Ext, got.Base)
	}
	// Precision sums per-site ratios in map order, so its last bits vary
	// from one evaluation to the next.
	for _, acc := range []*callgraph.Accuracy{&got.BaseAcc, &got.ExtAcc} {
		acc.Precision = math.Round(acc.Precision*1e9) / 1e9
	}
	if prev, ok := want[name]; ok {
		if prev != got {
			return fmt.Errorf("%s: outcome differs from an earlier evaluation:\n  %+v\n  %+v", name, prev, got)
		}
	} else {
		want[name] = got
	}
	return nil
}

// tracedOp evaluates one project the way experiments.RunBenchmark does
// (same layers, order and options; no cache, sequential solver, dynamic
// call graph), with a span around each layer call.
func (a *coldArm) tracedOp(b *corpus.Benchmark, opID int) (o coldOutcome, err error) {
	tr := a.tr
	var base, ext *static.Result
	var faults int
	tr.opSpan(opID, func() {
		o.HasDynCG = b.HasDynCG
		var pstart time.Time
		tr.do("parse", func() {
			pstart = time.Now()
			o.Stats, err = corpus.ComputeStats(b)
		})
		a.parseMS += msSince(pstart)
		a.parseBytes += float64(o.Stats.CodeSize)
		if err != nil {
			return
		}
		var ar *approx.Result
		tr.do("approx", func() { ar, err = approx.Run(b.Project, approx.Options{}) })
		if err != nil {
			return
		}
		o.HintCount, o.VisitedRatio = ar.Hints.Count(), ar.VisitedRatio()
		tr.do("static", func() {
			base, ext, err = static.AnalyzeBoth(b.Project, static.Options{
				Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules(),
			})
		})
		if err != nil {
			return
		}
		faults = len(ar.Faults) + len(ext.Faults) + len(ext.DegradedModules)
		tr.do("callgraph", func() {
			o.Base = base.Metrics()
			_ = base.Graph.Reachable(base.MainEntries)
			o.Ext = ext.Metrics()
			_ = ext.Graph.Reachable(ext.MainEntries)
		})
		if !b.HasDynCG {
			return
		}
		var dr *dyncg.Result
		tr.do("dyncg", func() { dr, err = dyncg.Build(b.Project, dyncg.Options{}) })
		if err != nil {
			return
		}
		faults += len(dr.Faults)
		tr.do("callgraph", func() {
			o.DynEdges = dr.Graph.NumEdges()
			o.BaseAcc = callgraph.CompareWithDynamic(base.Graph, dr.Graph)
			o.ExtAcc = callgraph.CompareWithDynamic(ext.Graph, dr.Graph)
		})
	})
	if err != nil {
		return o, err
	}
	if faults > 0 {
		return o, fmt.Errorf("%s: %d faults or degraded modules", b.Project.Name, faults)
	}
	// The traced op holds both graphs, so it checks ⊇ edge by edge.
	for site, targets := range base.Graph.Edges {
		for f := range targets {
			if !ext.Graph.HasEdge(site, f) {
				return o, fmt.Errorf("%s: baseline edge %v → %v missing from the extended graph", b.Project.Name, site, f)
			}
		}
	}
	a.hints += o.HintCount
	a.visited += o.VisitedRatio
	a.solveMS += float64((base.SolveWall + ext.SolveWall).Nanoseconds()) / 1e6
	a.dynEdges += o.DynEdges
	return o, nil
}

// finishTrace derives the layer times and the tracing overhead of a traced
// run and writes its spans out.
func finishTrace(cfg config, st *runStats, tr *tracer, untracedMS, tracedMS []float64) {
	layers, opMS := tr.layerTimes()
	n := float64(len(tracedMS))
	var layerSum float64
	for name, ms := range layers {
		if name != "driver" {
			layerSum += ms
		}
	}
	for _, name := range []string{"parse", "approx", "static", "dyncg", "callgraph", "delta.update"} {
		st.layers[name+".ms"] = layers[name] / n
	}
	st.layers["cache.ms"] = layers["cache"] / n
	st.layers["cache.fingerprint_ms"] += layers["cache.fingerprint"] / n
	st.layers["experiments.driver_ms"] = layers["driver"] / n
	st.layers["trace.layer_share"] = layerSum / opMS
	var u, t float64
	for _, d := range untracedMS {
		u += d
	}
	for _, d := range tracedMS {
		t += d
	}
	st.layers["trace.untraced_ops_per_s"] = float64(len(untracedMS)) / (u / 1000)
	st.layers["trace.traced_ops_per_s"] = n / (t / 1000)
	st.layers["trace.overhead_pct"] = 100 * (t/n/(u/float64(len(untracedMS))) - 1)
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
}

// cacheOpsPerSecond sizes corpus-cache runs: ops per --seconds, rounded to
// whole rounds of the corpus. It is not the measured rate, which is about
// 16 ops per second on a 2-core host: it gives two rounds (282 ops) at
// --seconds 10, the run length the steadiness tables in README.md were
// measured with. An untraced run at --seconds 10 thus lasts about 35 s with
// its set-up and end-of-run check, a traced one about 60 s.
const cacheOpsPerSecond = 28

// cacheEdit is one corpus-cache op's edit: the project slot, the file and
// its new content.
type cacheEdit struct {
	slot int
	path string
	src  string
}

// cacheEdits draws the seeded one-file edits of a corpus-cache run. A
// round edits every project once, in a seeded order and at a seeded
// main-package file, so every seed re-analyzes the same projects. Every
// edit appends a function whose name has never been seen, so the edited
// project always misses the store. arm separates the traced arm's edits
// from the untraced arm's.
func cacheEdits(seed int64, rounds int, arm string, bs []*corpus.Benchmark) []cacheEdit {
	rng := newRNG(seed, 2)
	var edits []cacheEdit
	for r := 0; r < rounds; r++ {
		for _, slot := range rng.Perm(len(bs)) {
			p := bs[slot].Project
			files := mainFiles(p)
			path := files[rng.Intn(len(files))]
			edits = append(edits, cacheEdit{slot: slot, path: path, src: p.Files[path] +
				fmt.Sprintf("\nfunction __benchEdit_%s_%x_%d() { return %d; }\n", arm, uint64(seed), len(edits), rng.Intn(1000000))})
		}
	}
	return edits
}

func runCorpusCache(cfg config) (*runStats, error) {
	st := &runStats{}
	opts := experiments.Options{WithDynCG: true, Workers: 1}
	// Set-up: a fresh store filled by one cold corpus pass — all writes.
	var dir string
	defer func() { os.RemoveAll(dir) }()
	for r := 0; r < setupReps[cfg.workload]; r++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.out, fmt.Sprintf("store-%d-%d", os.Getpid(), r))
		start := time.Now()
		store, err := cache.Open(dir)
		if err != nil {
			return nil, err
		}
		opts.Cache = store
		if _, err := experiments.RunCorpusOpts(corpus.All(), opts); err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, time.Since(start).Seconds())
	}

	pristine := corpus.All()
	rounds := int(math.Round(float64(cacheOpsPerSecond*cfg.seconds) / float64(len(pristine))))
	if rounds < 1 {
		rounds = 1
	}
	e0 := readEffort()
	untraced := cacheArm(nil, pristine, cacheEdits(cfg.seed, rounds, "u", pristine), opts)
	eff := readEffort().sub(e0)
	st.opMS, st.attempted, st.failed = untraced.opMS, len(untraced.opMS), untraced.failed
	st.counters = eff.exact()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	st.peakRSSMB = rss

	// Once per run, outside the timer: a from-scratch evaluation of the last
	// edited corpus must render the same content reports as the cached one.
	last := untraced.lastCorpus
	scratch := make([]*corpus.Benchmark, len(last))
	for i, b := range last {
		scratch[i] = &corpus.Benchmark{Project: cloneProject(b.Project), HasDynCG: b.HasDynCG}
	}
	scratchOpts := opts
	scratchOpts.Cache = nil
	scratchOuts, err := experiments.RunCorpusOpts(scratch, scratchOpts)
	if err != nil {
		return nil, err
	}
	got, err := contentReports(last, untraced.lastOuts)
	if err != nil {
		return nil, err
	}
	ref, err := contentReports(scratch, scratchOuts)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, ref) {
		st.checkErr = fmt.Errorf("cached evaluation of the edited corpus renders different reports than a from-scratch one")
	}
	if !cfg.trace {
		return st, nil
	}

	st.layers = map[string]float64{"experiments.live_heap_mb": liveHeapMB()}
	e1 := readEffort()
	traced := cacheArm(newTracer(), pristine, cacheEdits(cfg.seed, rounds, "t", pristine), opts)
	teff := readEffort().sub(e1)
	st.attempted += len(traced.opMS)
	st.failed += traced.failed
	teff.layers(st.layers)
	st.layers["cache.fingerprint_ms"] = traced.fingerprintMS / float64(len(traced.opMS))
	st.layers["parse.kb_per_ms"] = traced.parseBytes / 1024 / traced.parseMS
	finishTrace(cfg, st, traced.tr, untraced.opMS, traced.opMS)
	return st, nil
}

// cacheRun is the outcome of one corpus-cache loop.
type cacheRun struct {
	tr         *tracer
	opMS       []float64
	failed     int
	lastCorpus []*corpus.Benchmark
	lastOuts   []*experiments.Outcome
	// traced-arm accounting
	fingerprintMS       float64
	parseBytes, parseMS float64
}

// cacheArm runs the corpus-cache ops: each evaluates the whole corpus
// against the store with one freshly generated project edited. Unedited
// projects are pristine values that a cache hit never mutates; the edited
// one is a fresh copy. Only the evaluation is timed.
func cacheArm(tr *tracer, pristine []*corpus.Benchmark, edits []cacheEdit, opts experiments.Options) *cacheRun {
	r := &cacheRun{tr: tr}
	for i, e := range edits {
		bs := append([]*corpus.Benchmark(nil), pristine...)
		edited := cloneProject(pristine[e.slot].Project)
		edited.Files[e.path] = e.src
		bs[e.slot] = &corpus.Benchmark{Project: edited, HasDynCG: pristine[e.slot].HasDynCG}

		before := readEffort()
		var outs []*experiments.Outcome
		var err error
		var ph0 phaseMS
		start := time.Now()
		if tr == nil {
			outs, err = experiments.RunCorpusOpts(bs, opts)
		} else {
			ph0 = readPhases()
			outs, err = r.tracedOp(i, bs, e.slot, opts)
		}
		r.opMS = append(r.opMS, msSince(start))
		if tr != nil {
			r.parseMS += readPhases()[0] - ph0[0]
			r.parseBytes += float64(len(e.src))
			fpStart := time.Now()
			for _, b := range bs {
				_ = cache.ProjectFingerprint(b.Project)
			}
			r.fingerprintMS += msSince(fpStart)
		}
		if err == nil {
			err = checkCacheOp(bs, outs, readEffort().sub(before), len(edited.Files))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: corpus-cache:", err)
			r.failed++
			continue
		}
		r.lastCorpus, r.lastOuts = bs, outs
	}
	return r
}

// tracedOp evaluates the corpus one project per call: unedited projects
// are cache hits, so their whole evaluation is a "cache" span; the edited
// project's evaluation is an "experiments" span whose phases are charged
// to their layers by the phase timers.
func (r *cacheRun) tracedOp(op int, bs []*corpus.Benchmark, editedSlot int, opts experiments.Options) ([]*experiments.Outcome, error) {
	var outs []*experiments.Outcome
	var err error
	r.tr.opSpan(op, func() {
		for i, b := range bs {
			name := "cache"
			if i == editedSlot {
				name = "experiments"
			}
			var o []*experiments.Outcome
			r.tr.do(name, func() { o, err = experiments.RunCorpusOpts([]*corpus.Benchmark{b}, opts) })
			if err != nil {
				return
			}
			outs = append(outs, o...)
		}
	})
	return outs, err
}

// checkCacheOp checks one corpus-cache op: every project evaluated
// fault-free, and exactly the edited project re-analyzed (the other 140
// were outcome hits).
func checkCacheOp(bs []*corpus.Benchmark, outs []*experiments.Outcome, eff effort, editedModules int) error {
	if len(outs) != len(bs) {
		return fmt.Errorf("%d outcomes for %d projects", len(outs), len(bs))
	}
	for _, o := range outs {
		if len(o.Faults) > 0 || len(o.DegradedModules) > 0 {
			return fmt.Errorf("%s: %d faults, %d degraded modules", o.Name, len(o.Faults), len(o.DegradedModules))
		}
	}
	if eff.DeltaModules != int64(editedModules) {
		return fmt.Errorf("%d modules re-analyzed, want only the edited project's %d", eff.DeltaModules, editedModules)
	}
	return nil
}

// contentReports renders every content-derived report of a corpus run
// through the public Render functions: Table 1, Figures 4–7, Table 2, the
// vulnerability study, hint statistics and the summary. Timing tables are
// left out; they render measured wall time.
func contentReports(bs []*corpus.Benchmark, outs []*experiments.Outcome) ([]byte, error) {
	var buf bytes.Buffer
	experiments.RenderTable1(&buf, outs)
	for fig := 4; fig <= 7; fig++ {
		experiments.RenderFigure(&buf, outs, fig)
	}
	experiments.RenderTable2(&buf, outs)
	var dyn []*corpus.Benchmark
	for _, b := range bs {
		if b.HasDynCG {
			dyn = append(dyn, b)
		}
	}
	vr, err := experiments.VulnStudy(dyn, outs)
	if err != nil {
		return nil, err
	}
	experiments.RenderVuln(&buf, vr)
	experiments.RenderHintStats(&buf, outs)
	experiments.RenderSummary(&buf, experiments.Aggregate(outs))
	return buf.Bytes(), nil
}
