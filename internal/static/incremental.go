package static

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/hints"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/perf"
)

// AnalyzeBoth runs the baseline analysis and a hint-consuming analysis of
// the same program as one incremental pass: constraints are generated
// once, solved to the baseline fixpoint, the baseline call graph and
// counters are snapshotted there, and then the hint-derived constraints
// ([DPR], [DPW], module-load hints, and the enabled §6 extensions) are
// injected as deltas into the same solver, which resumes to the extended
// fixpoint.
//
// This is sound and exact, not an approximation: the extended constraint
// system of §4 is the baseline system plus additional subset constraints,
// and subset constraints are monotone, so the least fixpoint of the
// resumed system equals the least fixpoint of a from-scratch extended
// solve — the same argument that makes the paper's hints "strictly
// additive". Two details keep the equivalence exact rather than merely
// set-theoretically eventual:
//
//   - hint injection only binds to allocation-site tokens that exist at
//     injection time in a from-scratch run (tokens created by constraint
//     generation). Tokens the baseline solve materializes on the way
//     (native members, Object.create results, …) are filtered out via
//     hintTokenEligible, exactly reproducing the from-scratch behavior of
//     injectHints running before any solving;
//   - the require() native behavior fires once per (callee, token) pair,
//     so dynamic-specifier require sites whose behavior already fired
//     during the baseline phase are retro-linked to their module hints by
//     injectModuleHintDeltas.
//
// opts describes the extended run and must name a hint-consuming mode.
// The returned baseline result is identical to Analyze(Options{Mode:
// Baseline}) — same call graph, metrics, reachability, and solver effort
// counters — and the extended result's call graph, metrics, and
// reachability are identical to a from-scratch Analyze(opts)
// (solver-effort counters in the extended result are cumulative across
// both phases, which is the point: the baseline work is not redone).
func AnalyzeBoth(project *modules.Project, opts Options) (baseline, extended *Result, err error) {
	return AnalyzeBothFrom(project, opts, opts.hintSource())
}

// AnalyzeBothFrom is AnalyzeBoth with the hints, and the modules whose
// hints are degraded, taken from src instead of opts.Hints and
// opts.DegradeFiles. src runs on its own goroutine while the baseline
// constraints are generated and solved, and is joined before the first
// read of hints (see analyzeBothArms); a panic in src is re-raised on the
// caller, and an error from src is returned in preference to an error of
// the baseline phase.
func AnalyzeBothFrom(project *modules.Project, opts Options, src HintSource) (baseline, extended *Result, err error) {
	baseline, extended, _, err = analyzeBothArms(project, opts, src, false)
	return baseline, extended, err
}

// AnalyzeBothAndAblationFrom is AnalyzeBothFrom plus a third arm: the §4
// name-only ablation, forked from a snapshot of the baseline fixpoint, so
// the three results (baseline, relational-extended, name-only) cost one
// baseline solve plus two deltas instead of the three full solves of
// running them separately. The ablation result's call graph and metrics are
// identical to a from-scratch Analyze(Options{Mode: AblationNameOnly,
// Hints: h}) for the hints h of src: both arms are monotone extensions of
// the same baseline fixpoint, so each resumes to the least fixpoint of its
// own constraint system, and name-only injection reads no solved state
// (only generation-time site tokens, filtered by the same eligibility
// watermarks both paths share). The baseline and extended results are
// those of AnalyzeBothFrom, effort counters included. When the degraded
// hints carry no [DPW] write hints the two hint systems are identical, and
// the extended result is returned as the ablation result without a third
// phase.
//
// opts must not request EvalHints or Provenance: the snapshot does not
// cover eval-generated frames or the provenance journal.
func AnalyzeBothAndAblationFrom(project *modules.Project, opts Options, src HintSource) (baseline, extended, ablation *Result, err error) {
	if opts.EvalHints {
		return nil, nil, nil, fmt.Errorf("static: ablation arm cannot fork an EvalHints delta")
	}
	if opts.Provenance {
		return nil, nil, nil, fmt.Errorf("static: ablation arm cannot fork a provenance journal")
	}
	return analyzeBothArms(project, opts, src, true)
}

// HintSource produces the hints an extended analysis consumes and the
// modules whose hints are degraded (Options.Hints and Options.DegradeFiles),
// typically by running approximate interpretation or reading its memo.
type HintSource func() (*hints.Hints, map[string]bool, error)

// hintSource is the source that returns the hints opts already holds.
func (opts Options) hintSource() HintSource {
	return func() (*hints.Hints, map[string]bool, error) {
		return opts.Hints, opts.DegradeFiles, nil
	}
}

// hintJob is a HintSource running on its own goroutine.
type hintJob struct {
	done     chan struct{}
	hints    *hints.Hints
	degrade  map[string]bool
	err      error
	panicked bool
	panicVal any
}

// startHints runs src on a new goroutine, recovering its panic so that
// join can re-raise it on the caller.
func startHints(src HintSource) *hintJob {
	j := &hintJob{done: make(chan struct{})}
	go func() {
		defer close(j.done)
		defer func() {
			if r := recover(); r != nil {
				j.panicked, j.panicVal = true, r
			}
		}()
		j.hints, j.degrade, j.err = src()
	}()
	return j
}

// join waits for the source and returns its result, re-raising its panic.
func (j *hintJob) join() (*hints.Hints, map[string]bool, error) {
	<-j.done
	if j.panicked {
		panic(j.panicVal)
	}
	return j.hints, j.degrade, j.err
}

// analyzeBothArms runs the incremental solve with the hints of src. Phase 1
// builds its analyzer with baseline options, which read neither Hints nor
// DegradeFiles, so src runs concurrently with constraint generation and the
// baseline solve and is joined just before phase 2 first reads hints. The
// result is the one a sequential run (src, then the solve) produces: the
// two share only the project's parse cache and the perf counters, both
// safe for concurrent use, and each file version parses once whoever asks
// first. The goroutine is joined on every return path, a panicking phase 1
// included.
func analyzeBothArms(project *modules.Project, opts Options, src HintSource, withAblation bool) (baseline, extended, ablation *Result, err error) {
	if opts.Mode == Baseline {
		return nil, nil, nil, fmt.Errorf("static: AnalyzeBoth requires a hint-consuming mode")
	}
	alloc0 := perf.TotalAllocBytes()
	job := startHints(src)
	defer func() { <-job.done }()

	// Phase 1 — the baseline system, exactly as Analyze(Baseline) runs it.
	// Constraint generation is mode-independent and solve-time behaviors
	// consult a.opts, so solving with baseline options up to the first
	// fixpoint reproduces the standalone baseline analysis bit for bit.
	start := time.Now()
	a := newAnalyzer(project, Options{Mode: Baseline, SolverWorkers: opts.SolverWorkers,
		Provenance: opts.Provenance})
	a.generate()
	preSolveTokens := len(a.tokens)
	baseSolveStart := time.Now()
	a.s.solve()
	baseSolveWall := time.Since(baseSolveStart)
	entries := a.mainEntries()
	baseline = a.result(a.cg.Clone(), entries, start, baseSolveWall)
	postSolveTokens := baseline.NumTokens

	// Join the hint source. Degradation happens before the hint-consuming
	// phases: modules whose pre-analysis faulted contribute only baseline
	// constraints (see Options.DegradeFiles), so the resumed extended solve
	// injects no hint anchored in them.
	h, degrade, err := job.join()
	if err != nil {
		return nil, nil, nil, err
	}
	if h == nil {
		return nil, nil, nil, fmt.Errorf("static: mode %d requires hints", opts.Mode)
	}
	baseline.AllocBytes = perf.TotalAllocBytes() - alloc0
	opts.Hints, opts.DegradeFiles = h.WithoutFiles(degrade), degrade

	// Only [DPW] write hints distinguish the name-only arm from the
	// relational one; when it differs, snapshot the baseline fixpoint so the
	// arm can fork from it after the extended phase.
	var fork *analyzerSnapshot
	if withAblation && WriteHintsApply(opts.Hints) {
		fork = a.snapshot()
	}
	eligible := func(t Token) bool {
		return int(t) < preSolveTokens || int(t) >= postSolveTokens
	}

	// Phase 2 — switch to the extended options, inject the deltas and
	// resume.
	deltaStart := time.Now()
	deltaAlloc0 := perf.TotalAllocBytes()
	a.opts = opts
	if opts.EvalHints {
		a.genEvalHints()
	}
	a.hintTokenEligible = eligible
	a.injectHints()
	a.injectModuleHintDeltas()
	deltaSolveStart := time.Now()
	a.s.solve()
	extended = a.result(a.cg, entries, deltaStart, time.Since(deltaSolveStart))
	extended.AllocBytes = perf.TotalAllocBytes() - deltaAlloc0
	perf.Global().AddIncrementalSolve(baseline.SolveIterations, baseline.TokensDelivered,
		extended.SolveIterations-baseline.SolveIterations, extended.TokensDelivered-baseline.TokensDelivered)
	if a.s.prov != nil {
		extended.Provenance = newProvenance(a)
	}

	// Phase 3 (optional) — restore the baseline fixpoint and resume under
	// the name-only ablation injection. The extended result keeps the graph
	// it was handed; the restored analyzer grows the snapshot's copy.
	switch {
	case fork != nil:
		ablStart := time.Now()
		ablAlloc0 := perf.TotalAllocBytes()
		a.restore(fork)
		a.opts = opts
		a.opts.Mode = AblationNameOnly
		a.hintTokenEligible = eligible
		a.injectHints()
		a.injectModuleHintDeltas()
		ablSolveStart := time.Now()
		a.s.solve()
		ablation = a.result(a.cg, entries, ablStart, time.Since(ablSolveStart))
		ablation.AllocBytes = perf.TotalAllocBytes() - ablAlloc0
		perf.Global().AddIncrementalSolve(0, 0, ablation.SolveIterations-extended.SolveIterations,
			ablation.TokensDelivered-extended.TokensDelivered)
	case withAblation:
		ablation = extended
	}

	finalIters, finalDelivered := a.s.stats()
	perf.Global().AddSolve(finalIters, finalDelivered)
	ss := a.s.structure()
	perf.Global().AddSolveStructure(ss.CyclesCollapsed, ss.VarsUnified,
		ss.EdgesDeduped, ss.RedundantSkipped)
	a.recordParallelStats()
	return baseline, extended, ablation, nil
}

// analyzerSnapshot is a copy of the analyzer, and of its solver, at a
// drained fixpoint (see snapshot).
type analyzerSnapshot struct {
	a analyzer
	s *solverSnapshot
}

// snapshot copies the analyzer at the current drained fixpoint: the struct
// itself, the token table, every map the solve grows, the accessor wake
// states and the call graph, plus the solver's own snapshot. Maps that only
// constraint generation writes are shared.
func (a *analyzer) snapshot() *analyzerSnapshot {
	c := *a
	c.tokens = slices.Clone(a.tokens)
	c.siteToken = maps.Clone(a.siteToken)
	c.fnToken = maps.Clone(a.fnToken)
	c.natives = maps.Clone(a.natives)
	c.tokenBehaviors = maps.Clone(a.tokenBehaviors)
	c.propVars = maps.Clone(a.propVars)
	c.protoVars = maps.Clone(a.protoVars)
	c.fnInfos = maps.Clone(a.fnInfos)
	c.loadSeen = maps.Clone(a.loadSeen)
	c.globals = maps.Clone(a.globals)
	c.dynReads = maps.Clone(a.dynReads)
	c.dynReadBases = maps.Clone(a.dynReadBases)
	c.dynWrites = maps.Clone(a.dynWrites)
	c.dynRequires = maps.Clone(a.dynRequires)
	c.evalResults = maps.Clone(a.evalResults)
	c.accessors = make(map[accName]*accessorReads, len(a.accessors))
	for n, w := range a.accessors {
		c.accessors[n] = &accessorReads{awake: w.awake,
			waiting: slices.Clone(w.waiting), ctxs: slices.Clone(w.ctxs)}
	}
	c.cg = a.cg.Clone()
	return &analyzerSnapshot{a: c, s: a.s.snapshot()}
}

// restore returns the analyzer to snap. The struct is copied back in
// place, keeping the same *solver, because trigger closures capture a.
// Like solver.restore it adopts the snapshot's copies, so a snapshot
// restores once. Effort counters stay cumulative.
func (a *analyzer) restore(snap *analyzerSnapshot) {
	*a = snap.a
	a.s.restore(snap.s)
}

// injectModuleHintDeltas applies module-load hints to dynamic-specifier
// require sites whose require behavior already fired (with module hints
// disabled) during the baseline solve. Sites whose behavior fires during
// the resumed solve consume the hints directly in requireCall; linking is
// idempotent, so a site may safely take both paths.
func (a *analyzer) injectModuleHintDeltas() {
	if a.opts.Mode == Baseline || a.opts.Hints == nil {
		return
	}
	for _, mh := range a.opts.Hints.ModuleHints() {
		if result, ok := a.dynRequires[mh.Site]; ok {
			prev := a.pushCtx(RuleModuleHint, mh.Site, mh.Path)
			a.linkRequire(mh.Site, result, mh.Path)
			a.popCtx(prev)
		}
	}
}

// hintSiteToken resolves an allocation site to its token for hint
// injection, honoring the incremental eligibility filter (see AnalyzeBoth).
func (a *analyzer) hintSiteToken(site loc.Loc) (Token, bool) {
	t, ok := a.siteToken[site]
	if !ok {
		return 0, false
	}
	if a.hintTokenEligible != nil && !a.hintTokenEligible(t) {
		return 0, false
	}
	return t, true
}
