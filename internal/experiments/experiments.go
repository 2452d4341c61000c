// Package experiments reproduces the paper's evaluation (§5): it runs the
// approximate-interpretation + static-analysis pipeline over the corpus and
// computes the data behind every table and figure — Table 1 (benchmark
// inventory), Figures 4–7 (call edges, reachable functions, resolved and
// monomorphic call sites), Table 2 (recall/precision against dynamic call
// graphs), Table 3 (running times), the vulnerability-reachability study,
// hint statistics, and the §4 relational-vs-name-only ablation.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/fault"
	"repro/internal/hints"
	"repro/internal/perf"
	"repro/internal/static"
)

// Outcome is the full evaluation record for one benchmark.
type Outcome struct {
	Name  string
	Stats corpus.Stats

	HintCount    int
	VisitedRatio float64

	ApproxTime   time.Duration
	BaselineTime time.Duration
	ExtendedTime time.Duration

	Base callgraph.Metrics
	Ext  callgraph.Metrics

	HasDynCG bool
	DynEdges int
	BaseAcc  callgraph.Accuracy
	ExtAcc   callgraph.Accuracy

	// Faults are the contained failures across this benchmark's phases;
	// DegradedModules are the modules whose hints were dropped for them
	// (baseline-only fallback). Both empty on a healthy run.
	Faults          []fault.Record
	DegradedModules []string

	// Reachable function sets, sorted by loc.Loc.Before (for the
	// vulnerability study).
	baseReach []callgraph.FuncID
	extReach  []callgraph.FuncID

	// Name-only ablation arm (§4), produced by the main run as a forked
	// third phase of the incremental solve (Options.WithAblation). hasAbl
	// whenever the run requested the arm and built the dynamic call graph
	// its precision column needs; AblationRows reads the arm from here.
	hasAbl   bool
	ablEdges int
	ablMono  float64
	ablPrec  float64
}

// RunBenchmark evaluates one benchmark: pre-analysis, baseline+extended
// (incrementally — see RunBenchmarkOpts), and (if available and requested)
// the dynamic call graph.
func RunBenchmark(b *corpus.Benchmark, withDyn bool) (*Outcome, error) {
	return runBenchmark(b, Options{WithDynCG: withDyn}, nil)
}

// runBenchmark evaluates one benchmark. Baseline and extended run as one
// incremental solve (static.AnalyzeBoth): constraints are generated once,
// the baseline fixpoint is snapshotted, and the [DPR]/[DPW] hint deltas
// resume the same solver — the outcome is identical to two from-scratch
// analyses (asserted by the differential tests here and in internal/static),
// only cheaper.
//
// Robustness: faults contained during the pre-analysis (recovered panics,
// per-item deadline aborts when opts.ApproxDeadline is set, corrupt module
// sources) degrade the faulted modules to baseline-only constraints in the
// static phases and are reported on the Outcome and in the perf counters;
// the benchmark still completes.
//
// A non-nil jr asks the run to keep the provenance journal of its
// extended solve and to hand jr what root-cause attribution reads (see
// RunWhyMissed). Such a run must not set opts.Cache, whose hits skip the
// phases jr records, or opts.WithAblation, whose arm refuses a journal.
func runBenchmark(b *corpus.Benchmark, opts Options, jr *journaledRun) (*Outcome, error) {
	// Whole-outcome reuse: an unchanged project (same content fingerprint,
	// same outcome-shaping options) skips every phase. On a miss, the
	// modules about to be re-analyzed are counted.
	var cacheFP, hintsCacheKey string
	if opts.Cache != nil {
		cacheFP = cache.ProjectFingerprint(b.Project)
		if cached, ok := loadOutcome(opts.Cache, outcomeKey(cacheFP, opts, b), b); ok {
			perf.Global().AddProject()
			return cached, nil
		}
		perf.Global().AddDeltaModules(len(b.Project.Files))
		hintsCacheKey = approxKey(cacheFP, opts)
	}

	out := &Outcome{Name: b.Project.Name, HasDynCG: b.HasDynCG}
	perf.Global().AddProject()

	st, err := corpus.ComputeStats(b)
	if err != nil {
		return nil, err
	}
	out.Stats = st

	// Pre-analysis, possibly from the hint-set artifact layer (hit when the
	// project is unchanged but a static/dyncg option invalidated the
	// outcome record). Only fault-free pre-analyses are ever cached, so a
	// hit implies no degraded modules. It is the hint source of the
	// incremental solve and runs concurrently with the baseline phase; the
	// solve joins it before returning, and nothing reads the fields of out
	// it writes before then.
	var approxErr error
	preAnalysis := func() (*hints.Hints, map[string]bool, error) {
		if hintsCacheKey != "" {
			if rec, h, ok := loadApprox(opts.Cache, hintsCacheKey); ok {
				out.HintCount = rec.HintCount
				out.VisitedRatio = rec.VisitedRatio
				out.ApproxTime = time.Duration(rec.DurationNS)
				return h, nil, nil
			}
		}
		ar, err := approx.Run(b.Project, approx.Options{Deadline: opts.ApproxDeadline})
		if err != nil {
			approxErr = fmt.Errorf("%s: approx: %w", b.Project.Name, err)
			return nil, nil, approxErr
		}
		out.HintCount = ar.Hints.Count()
		out.VisitedRatio = ar.VisitedRatio()
		out.ApproxTime = ar.Duration
		perf.Global().AddPhase(perf.PhaseApprox, ar.Duration)
		out.Faults = append(out.Faults, ar.Faults...)
		if jr != nil {
			jr.ar = ar
		}
		if hintsCacheKey != "" && len(ar.Faults) == 0 {
			storeApprox(opts.Cache, hintsCacheKey, out.HintCount, out.VisitedRatio, out.ApproxTime, ar.Hints)
		}
		return ar.Hints, ar.FaultedModules(), nil
	}

	var base, ext, abl *static.Result
	sopts := static.Options{Mode: static.WithHints, SolverWorkers: opts.SolverWorkers, Provenance: jr != nil}
	// The §4 name-only arm rides on the incremental solve of every dynamic-CG
	// benchmark when requested; AnalyzeBothAndAblationFrom runs its third
	// phase only when the degraded hints carry [DPW] write hints.
	wantAbl := opts.WithAblation && opts.WithDynCG && b.HasDynCG
	if wantAbl {
		base, ext, abl, err = static.AnalyzeBothAndAblationFrom(b.Project, sopts, preAnalysis)
	} else {
		base, ext, err = static.AnalyzeBothFrom(b.Project, sopts, preAnalysis)
	}
	switch {
	case approxErr != nil:
		return nil, approxErr
	case err != nil:
		return nil, fmt.Errorf("%s: baseline+extended: %w", b.Project.Name, err)
	}
	out.Faults = append(out.Faults, ext.Faults...)
	out.DegradedModules = ext.DegradedModules
	out.BaselineTime = base.Duration
	out.Base = base.Metrics()
	out.baseReach = sortedFuncs(base.Graph.Reachable(base.MainEntries))
	perf.Global().AddPhase(perf.PhaseBaseline, base.Duration)
	// The baseline result's allocation includes the concurrent
	// pre-analysis (see perf.Snapshot.PhaseAllocBytes).
	perf.Global().AddPhaseAlloc(perf.PhaseBaseline, base.AllocBytes)
	out.ExtendedTime = ext.Duration
	out.Ext = ext.Metrics()
	out.extReach = sortedFuncs(ext.Graph.Reachable(ext.MainEntries))
	perf.Global().AddPhase(perf.PhaseExtended, ext.Duration)
	perf.Global().AddPhaseAlloc(perf.PhaseExtended, ext.AllocBytes)

	if opts.WithDynCG && b.HasDynCG {
		dr, err := dynGraph(b, dyncg.Options{Deadline: opts.DynCGDeadline})
		if err != nil {
			return nil, fmt.Errorf("%s: dyncg: %w", b.Project.Name, err)
		}
		out.DynEdges = dr.Graph.NumEdges()
		out.BaseAcc = callgraph.CompareWithDynamic(base.Graph, dr.Graph)
		out.ExtAcc = callgraph.CompareWithDynamic(ext.Graph, dr.Graph)
		out.Faults = append(out.Faults, dr.Faults...)
		if jr != nil {
			jr.ext, jr.dyn = ext, dr.Graph
		}
		if wantAbl {
			out.hasAbl = true
			out.ablEdges = abl.Graph.NumEdges()
			out.ablMono = abl.Metrics().MonomorphicPct
			out.ablPrec = callgraph.CompareWithDynamic(abl.Graph, dr.Graph).Precision
		}
	}
	perf.Global().AddFaults(len(out.Faults), len(out.DegradedModules))
	// Cache only clean runs: a faulted or degraded outcome reflects this
	// run's containment decisions, not the project's content, and must
	// never be served to a later run.
	if opts.Cache != nil && len(out.Faults) == 0 && len(out.DegradedModules) == 0 {
		storeOutcome(opts.Cache, outcomeKey(cacheFP, opts, b), out)
	}
	return out, nil
}

// buildDynCG is dyncg.Build, a variable so tests can count builds.
var buildDynCG = dyncg.Build

// dynGraph builds a benchmark's dynamic call graph and charges it to the
// dyncg phase counters. A consumer that needs the graph of an evaluated
// benchmark takes it from the Outcome instead of building it again.
func dynGraph(b *corpus.Benchmark, opts dyncg.Options) (*dyncg.Result, error) {
	alloc0 := perf.TotalAllocBytes()
	res, err := buildDynCG(b.Project, opts)
	if err == nil {
		perf.Global().AddPhase(perf.PhaseDynCG, res.Duration)
		perf.Global().AddPhaseAlloc(perf.PhaseDynCG, perf.TotalAllocBytes()-alloc0)
	}
	return res, err
}

// Options configures a corpus evaluation run.
type Options struct {
	// WithDynCG additionally builds dynamic call graphs (where available)
	// and computes recall/precision.
	WithDynCG bool
	// Workers bounds how many benchmarks are evaluated concurrently.
	// Zero or negative means runtime.NumCPU(). Results are identical to a
	// sequential run regardless of the worker count: benchmarks share no
	// state, and outcomes are collected by input position.
	Workers int
	// ApproxDeadline is the per-worklist-item wall-clock deadline of the
	// pre-analysis (0 = unlimited). Items that trip it are aborted, recorded
	// as deadline faults, and their modules degrade to baseline-only hints.
	ApproxDeadline time.Duration
	// DynCGDeadline is the per-entry wall-clock deadline of dynamic
	// call-graph construction (0 = unlimited).
	DynCGDeadline time.Duration
	// WithAblation adds the §4 name-only ablation arm to the evaluation of
	// every dynamic-CG benchmark when WithDynCG is set: a forked third
	// phase of the incremental solve (baseline solved once, two deltas),
	// read back by AblationRows.
	WithAblation bool
	// SolverWorkers is the epoch engine's scan-worker count per benchmark
	// (static.Options.SolverWorkers; 0 and 1 both mean one worker).
	// Reports are identical for every value; this multiplies with Workers,
	// so corpus runs usually pick one axis of parallelism, not both.
	SolverWorkers int
	// Cache attaches a persistent artifact store (internal/cache): hint
	// sets and whole outcomes of fault-free runs are written there keyed
	// by content fingerprints, and later runs reuse whatever still
	// matches. Reports are byte-identical with or without a cache — every
	// artifact key covers the complete input of its artifact, so a hit
	// reconstructs exactly what recomputation would have produced. Nil
	// disables caching.
	Cache *cache.Store
}

// RunCorpus evaluates the given benchmarks over a worker pool sized to the
// machine (runtime.NumCPU()), preserving input order in the results. Use
// RunCorpusOpts to pick the worker count explicitly.
func RunCorpus(bs []*corpus.Benchmark, withDyn bool) ([]*Outcome, error) {
	return RunCorpusOpts(bs, Options{WithDynCG: withDyn})
}

// RunCorpusOpts evaluates the given benchmarks with explicit options. The
// returned outcomes are positionally aligned with bs, so reports rendered
// from them are byte-identical to a sequential (Workers: 1) run.
func RunCorpusOpts(bs []*corpus.Benchmark, opts Options) ([]*Outcome, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(bs) {
		workers = len(bs)
	}
	outs := make([]*Outcome, len(bs))
	if workers <= 1 {
		for i, b := range bs {
			o, err := runBenchmark(b, opts, nil)
			if err != nil {
				return nil, err
			}
			outs[i] = o
		}
		return outs, nil
	}

	errs := make([]error, len(bs))
	var failed atomic.Bool
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o, err := runBenchmark(bs[i], opts, nil)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				outs[i] = o
			}
		}()
	}
	for i := range bs {
		if failed.Load() {
			break // stop dispatching; in-flight benchmarks finish
		}
		work <- i
	}
	close(work)
	wg.Wait()
	// Report the lowest-index failure, matching what a sequential run
	// would have surfaced first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// Summary aggregates a corpus run the way the paper's §5 summary boxes do.
type Summary struct {
	Projects int

	// Average per-project percentage increases (paper: +55.1% call edges,
	// +21.8% reachable functions).
	PctMoreCallEdges float64
	PctMoreReachable float64
	// Average percentage-point deltas (paper: +17.7 resolved, −1.5
	// monomorphic).
	DeltaResolvedPts    float64
	DeltaMonomorphicPts float64

	// Hint statistics (paper: 0–15,036, median 1,492).
	HintsMin, HintsMax, HintsMedian int
	// Average fraction of functions visited by approximate interpretation
	// (paper: ~60%).
	AvgVisitedRatio float64

	// Recall/precision averages over the dyn-CG subset (paper Table 2:
	// recall 75.9% → 88.1%, precision −1.5 points).
	DynProjects   int
	AvgRecallBase float64
	AvgRecallExt  float64
	AvgPrecBase   float64
	AvgPrecExt    float64
}

// Aggregate computes the summary statistics over a corpus run.
func Aggregate(outs []*Outcome) Summary {
	var s Summary
	s.Projects = len(outs)
	var hintCounts []int
	for _, o := range outs {
		if o.Base.CallEdges > 0 {
			s.PctMoreCallEdges += 100 * float64(o.Ext.CallEdges-o.Base.CallEdges) / float64(o.Base.CallEdges)
		}
		if o.Base.ReachableFunctions > 0 {
			s.PctMoreReachable += 100 * float64(o.Ext.ReachableFunctions-o.Base.ReachableFunctions) / float64(o.Base.ReachableFunctions)
		}
		s.DeltaResolvedPts += o.Ext.ResolvedPct - o.Base.ResolvedPct
		s.DeltaMonomorphicPts += o.Ext.MonomorphicPct - o.Base.MonomorphicPct
		s.AvgVisitedRatio += o.VisitedRatio
		hintCounts = append(hintCounts, o.HintCount)
		if o.HasDynCG && o.DynEdges > 0 {
			s.DynProjects++
			s.AvgRecallBase += o.BaseAcc.Recall
			s.AvgRecallExt += o.ExtAcc.Recall
			s.AvgPrecBase += o.BaseAcc.Precision
			s.AvgPrecExt += o.ExtAcc.Precision
		}
	}
	n := float64(len(outs))
	if n > 0 {
		s.PctMoreCallEdges /= n
		s.PctMoreReachable /= n
		s.DeltaResolvedPts /= n
		s.DeltaMonomorphicPts /= n
		s.AvgVisitedRatio /= n
	}
	if s.DynProjects > 0 {
		d := float64(s.DynProjects)
		s.AvgRecallBase /= d
		s.AvgRecallExt /= d
		s.AvgPrecBase /= d
		s.AvgPrecExt /= d
	}
	if len(hintCounts) > 0 {
		sort.Ints(hintCounts)
		s.HintsMin = hintCounts[0]
		s.HintsMax = hintCounts[len(hintCounts)-1]
		s.HintsMedian = hintCounts[len(hintCounts)/2]
	}
	return s
}

// VulnResult is the §5 vulnerability-reachability study.
type VulnResult struct {
	TotalVulns        int
	ReachableBaseline int
	ReachableExtended int
	ReachableFnsBase  int
	ReachableFnsExt   int
}

// VulnStudy computes vulnerability reachability over already-evaluated
// outcomes, pairing each with its benchmark's advisory set.
func VulnStudy(bs []*corpus.Benchmark, outs []*Outcome) (VulnResult, error) {
	var vr VulnResult
	byName := map[string]*Outcome{}
	for _, o := range outs {
		byName[o.Name] = o
	}
	for _, b := range bs {
		o := byName[b.Project.Name]
		if o == nil {
			continue
		}
		vulns, err := corpus.Vulnerabilities(b)
		if err != nil {
			return vr, err
		}
		vr.TotalVulns += len(vulns)
		for _, v := range vulns {
			if reaches(o.baseReach, v.Func) {
				vr.ReachableBaseline++
			}
			if reaches(o.extReach, v.Func) {
				vr.ReachableExtended++
			}
		}
		vr.ReachableFnsBase += o.Base.ReachableFunctions
		vr.ReachableFnsExt += o.Ext.ReachableFunctions
	}
	return vr, nil
}

func sortedFuncs(set map[callgraph.FuncID]bool) []callgraph.FuncID {
	out := make([]callgraph.FuncID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// reaches reports whether the sorted set fs contains f.
func reaches(fs []callgraph.FuncID, f callgraph.FuncID) bool {
	i := sort.Search(len(fs), func(i int) bool { return !fs[i].Before(f) })
	return i < len(fs) && fs[i] == f
}

// AblationOutcome compares the relational [DPW] rule with the §4 name-only
// strawman on one benchmark.
type AblationOutcome struct {
	Name                  string
	RelationalEdges       int
	NameOnlyEdges         int
	RelationalMonomorphic float64
	NameOnlyMonomorphic   float64
	RelationalPrecision   float64 // vs dynamic CG, when available
	NameOnlyPrecision     float64
}

// AblationRows builds the §4 ablation table from a corpus run: one row per
// dynamic-CG outcome, the relational column from its extended analysis and
// the name-only column from the arm the run produced. It fails for a
// dynamic-CG outcome evaluated without Options.WithAblation (or without
// WithDynCG), which carries no arm.
func AblationRows(outs []*Outcome) ([]*AblationOutcome, error) {
	var rows []*AblationOutcome
	for _, o := range outs {
		if !o.HasDynCG {
			continue
		}
		if !o.hasAbl {
			return nil, fmt.Errorf("%s: outcome has no ablation arm (run with WithDynCG and WithAblation)", o.Name)
		}
		rows = append(rows, &AblationOutcome{
			Name:                  o.Name,
			RelationalEdges:       o.Ext.CallEdges,
			NameOnlyEdges:         o.ablEdges,
			RelationalMonomorphic: o.Ext.MonomorphicPct,
			NameOnlyMonomorphic:   o.ablMono,
			RelationalPrecision:   o.ExtAcc.Precision,
			NameOnlyPrecision:     o.ablPrec,
		})
	}
	return rows, nil
}

// ScaleRow is one size tier of the scalability study: how analysis cost
// grows with program size (supporting Table 3's "approximate interpretation
// is scalable" claim with a size-vs-time curve).
type ScaleRow struct {
	Tier      string
	Projects  int
	AvgFuncs  float64
	AvgSizeKB float64
	AvgApprox time.Duration
	AvgBase   time.Duration
	AvgExt    time.Duration
}

// Scalability buckets outcomes into size tiers by function count.
func Scalability(outs []*Outcome) []ScaleRow {
	buckets := []struct {
		name     string
		min, max int
	}{
		{"tiny (<100 fns)", 0, 100},
		{"small (100–250)", 100, 250},
		{"medium (250–450)", 250, 450},
		{"large (450+)", 450, 1 << 30},
	}
	rows := make([]ScaleRow, len(buckets))
	for i, b := range buckets {
		rows[i].Tier = b.name
	}
	for _, o := range outs {
		for i, b := range buckets {
			if o.Stats.Functions >= b.min && o.Stats.Functions < b.max {
				r := &rows[i]
				r.Projects++
				r.AvgFuncs += float64(o.Stats.Functions)
				r.AvgSizeKB += float64(o.Stats.CodeSize) / 1024
				r.AvgApprox += o.ApproxTime
				r.AvgBase += o.BaselineTime
				r.AvgExt += o.ExtendedTime
				break
			}
		}
	}
	for i := range rows {
		if n := rows[i].Projects; n > 0 {
			rows[i].AvgFuncs /= float64(n)
			rows[i].AvgSizeKB /= float64(n)
			rows[i].AvgApprox /= time.Duration(n)
			rows[i].AvgBase /= time.Duration(n)
			rows[i].AvgExt /= time.Duration(n)
		}
	}
	return rows
}
