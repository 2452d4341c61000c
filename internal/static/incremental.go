package static

import (
	"fmt"
	"time"

	"repro/internal/callgraph"
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
	baseline, extended, _, err = analyzeBothArms(project, opts, false)
	return baseline, extended, err
}

// AnalyzeBothAndAblation is AnalyzeBoth plus a third arm: after the extended
// fixpoint it rolls the solver and analyzer back to the baseline fixpoint and
// resumes once more with the §4 name-only ablation injection, so the three
// results (baseline, relational-extended, name-only) cost one baseline solve
// plus two deltas instead of the three full solves of running them
// separately. The ablation result's call graph and metrics are identical to
// a from-scratch Analyze(Options{Mode: AblationNameOnly, Hints: opts.Hints}):
// both solve the least fixpoint of the same monotone constraint system, and
// name-only injection reads no solved state (only generation-time site
// tokens, filtered by the same eligibility watermarks both paths share).
//
// The rollback forces the delta phases to run with cycle unification
// disabled (see rollbackPoint), which changes effort counters but not
// results; opts must not request EvalHints, whose generation phase mutates
// analyzer state the rollback journal does not cover.
func AnalyzeBothAndAblation(project *modules.Project, opts Options) (baseline, extended, ablation *Result, err error) {
	if opts.EvalHints {
		return nil, nil, nil, fmt.Errorf("static: ablation arm cannot roll back an EvalHints delta")
	}
	if opts.Provenance {
		return nil, nil, nil, fmt.Errorf("static: ablation arm cannot roll back a provenance journal")
	}
	return analyzeBothArms(project, opts, true)
}

func analyzeBothArms(project *modules.Project, opts Options, withAblation bool) (baseline, extended, ablation *Result, err error) {
	if opts.Mode == Baseline {
		return nil, nil, nil, fmt.Errorf("static: AnalyzeBoth requires a hint-consuming mode")
	}
	if opts.Hints == nil {
		return nil, nil, nil, fmt.Errorf("static: mode %d requires hints", opts.Mode)
	}
	// Degradation happens before either phase: modules whose pre-analysis
	// faulted contribute only baseline constraints (see Options.DegradeFiles),
	// so the resumed extended solve injects no hint anchored in them.
	opts.Hints = opts.Hints.WithoutFiles(opts.DegradeFiles)

	// Phase 1 — the baseline system, exactly as Analyze(Baseline) runs it.
	// Constraint generation is mode-independent and solve-time behaviors
	// consult a.opts, so solving with baseline options up to the first
	// fixpoint reproduces the standalone baseline analysis bit for bit.
	start := time.Now()
	alloc0 := perf.TotalAllocBytes()
	a := newAnalyzer(project, Options{Mode: Baseline, SolverWorkers: opts.SolverWorkers,
		Provenance: opts.Provenance})
	if err := a.generate(); err != nil {
		return nil, nil, nil, err
	}
	preSolveTokens := len(a.tokens)
	baseSolveStart := time.Now()
	a.s.solve()
	baseSolveWall := time.Since(baseSolveStart)
	baseStructure := a.s.structure()
	baseParallel := a.s.parallelStats()
	baseVars := a.s.numVars()
	baseIters, baseDelivered := a.s.stats()
	postSolveTokens := len(a.tokens)
	entries := a.mainEntries()
	baseline = &Result{
		Graph:           a.cg.Clone(),
		MainEntries:     entries,
		NumVars:         baseVars,
		NumTokens:       postSolveTokens,
		SolveIterations: baseIters,
		TokensDelivered: baseDelivered,
		Structure:       baseStructure,
		Parallel:        baseParallel,
		SolveWall:       baseSolveWall,
		AnalyzedModules: len(a.progs),
		Duration:        time.Since(start),
		AllocBytes:      perf.TotalAllocBytes() - alloc0,
		Faults:          a.faults,
	}

	// Phase 2 — switch to the extended options and inject the deltas. With
	// an ablation arm requested, open the rollback window first: it pins the
	// solver in no-unify mode (exact; only effort differs) so every phase-2
	// mutation is append-only and can be unwound to re-run phase 2 under the
	// name-only injection.
	var rb *analyzerRollback
	if withAblation {
		rb = a.beginRollbackWindow(baseline.Graph)
	}
	deltaStart := time.Now()
	deltaAlloc0 := perf.TotalAllocBytes()
	a.opts = opts
	if opts.EvalHints {
		a.genEvalHints()
	}
	a.hintTokenEligible = func(t Token) bool {
		return int(t) < preSolveTokens || int(t) >= postSolveTokens
	}
	a.injectHints()
	a.injectModuleHintDeltas()
	deltaSolveStart := time.Now()
	a.s.solve()
	deltaSolveWall := time.Since(deltaSolveStart)

	iters, delivered := a.s.stats()
	perf.Global().AddIncrementalSolve(baseIters, baseDelivered,
		iters-baseIters, delivered-baseDelivered)

	extended = &Result{
		Graph:           a.cg,
		MainEntries:     entries,
		NumVars:         a.s.numVars(),
		NumTokens:       len(a.tokens),
		SolveIterations: iters,
		TokensDelivered: delivered,
		Structure:       a.s.structure(),
		Parallel:        a.s.parallelStats(),
		SolveWall:       deltaSolveWall,
		AnalyzedModules: len(a.progs),
		Duration:        time.Since(deltaStart),
		AllocBytes:      perf.TotalAllocBytes() - deltaAlloc0,
		Faults:          a.faults,
		DegradedModules: degradedList(opts.DegradeFiles),
	}
	if a.s.prov != nil {
		extended.Provenance = newProvenance(a)
	}

	// Phase 3 (optional) — rewind to the baseline fixpoint and resume under
	// the name-only ablation injection. The extended result's graph was
	// handed out above; rollbackTo gives the analyzer a fresh clone of the
	// baseline graph to grow, so the extended graph is not disturbed.
	if withAblation {
		ablStart := time.Now()
		ablAlloc0 := perf.TotalAllocBytes()
		a.rollbackTo(rb)
		ablOpts := opts
		ablOpts.Mode = AblationNameOnly
		a.opts = ablOpts
		a.hintTokenEligible = func(t Token) bool {
			return int(t) < preSolveTokens || int(t) >= postSolveTokens
		}
		a.injectHints()
		a.injectModuleHintDeltas()
		ablSolveStart := time.Now()
		a.s.solve()
		ablSolveWall := time.Since(ablSolveStart)
		ablIters, ablDelivered := a.s.stats()
		perf.Global().AddIncrementalSolve(0, 0, ablIters-iters, ablDelivered-delivered)
		ablation = &Result{
			Graph:           a.cg,
			MainEntries:     entries,
			NumVars:         a.s.numVars(),
			NumTokens:       len(a.tokens),
			SolveIterations: ablIters,
			TokensDelivered: ablDelivered,
			Structure:       a.s.structure(),
			Parallel:        a.s.parallelStats(),
			SolveWall:       ablSolveWall,
			AnalyzedModules: len(a.progs),
			Duration:        time.Since(ablStart),
			AllocBytes:      perf.TotalAllocBytes() - ablAlloc0,
			Faults:          a.faults,
			DegradedModules: degradedList(opts.DegradeFiles),
		}
	}

	finalIters, finalDelivered := a.s.stats()
	perf.Global().AddSolve(finalIters, finalDelivered)
	ss := a.s.structure()
	perf.Global().AddSolveStructure(ss.CyclesCollapsed, ss.VarsUnified,
		ss.EdgesDeduped, ss.RedundantSkipped)
	a.recordParallelStats()
	return baseline, extended, ablation, nil
}

// deltaJournal records insertions a rollback (see beginRollbackWindow) could
// not otherwise find: entries whose key and value both predate the window,
// so the watermark sweeps of rollbackTo cannot identify them as new.
type deltaJournal struct {
	loadSeen    []loadKey
	dynRequires []loc.Loc
	// accessorWakes lists the accessor names woken in the window, and
	// accessorWaits the name of every read appended to a waiting list.
	accessorWakes []accName
	accessorWaits []accName
}

// analyzerRollback snapshots the analyzer (and its solver) at the baseline
// fixpoint so a later rollbackTo can restore it and resume with a different
// hint-delta variant.
type analyzerRollback struct {
	rp     *rollbackPoint
	nTok   int
	baseCG *callgraph.Graph
	opts   Options
	elig   func(Token) bool
}

// beginRollbackWindow opens a rollback window at the current (baseline)
// fixpoint. baseGraph must be a snapshot of the call graph at this point;
// rollbackTo clones it rather than adopting it, so the caller's copy stays
// pristine. From here until rollbackTo, the solver runs in no-unify mode and
// the analyzer journals insertions into the maps whose delta-phase growth a
// watermark cannot detect (loadSeen and dynRequires, which can gain entries
// built entirely from pre-window variables and tokens when an old token
// reaches an old variable's trigger only during the delta), and the
// accessor names woken and the accessor reads queued in the window.
func (a *analyzer) beginRollbackWindow(baseGraph *callgraph.Graph) *analyzerRollback {
	a.journal = &deltaJournal{}
	return &analyzerRollback{
		rp:     a.s.rollbackPoint(),
		nTok:   len(a.tokens),
		baseCG: baseGraph,
		opts:   a.opts,
		elig:   a.hintTokenEligible,
	}
}

// rollbackTo restores the analyzer to the fixpoint captured by
// beginRollbackWindow. Post-window tokens and variables are dropped, every
// site-keyed map loses the entries that reference them, journaled
// insertions are deleted, and the call graph is replaced by a clone of the
// baseline snapshot. Effort counters stay cumulative.
func (a *analyzer) rollbackTo(rb *analyzerRollback) {
	a.s.rollbackTo(rb.rp)
	nVars := rb.rp.nVars
	nTok := rb.nTok
	a.tokens = a.tokens[:nTok]
	// Maps keyed or valued by tokens: drop entries minted during the delta.
	for site, t := range a.siteToken {
		if int(t) >= nTok {
			delete(a.siteToken, site)
		}
	}
	for f, t := range a.fnToken {
		if int(t) >= nTok {
			delete(a.fnToken, f)
		}
	}
	for name, t := range a.natives {
		if int(t) >= nTok {
			delete(a.natives, name)
		}
	}
	for t := range a.tokenBehaviors {
		if int(t) >= nTok {
			delete(a.tokenBehaviors, t)
		}
	}
	// Maps valued by variables: solve-time misses always allocate a fresh
	// variable, so any entry holding a post-window variable was created
	// during the delta (and no pre-window entry can be overwritten with a
	// new variable — map hits return the existing one).
	for k, v := range a.propVars {
		if int(v) >= nVars {
			delete(a.propVars, k)
		}
	}
	for t, v := range a.protoVars {
		if int(v) >= nVars {
			delete(a.protoVars, t)
		}
	}
	for t, fi := range a.fnInfos {
		// An fnInfo's variables are allocated together; ret is among them.
		if int(fi.ret) >= nVars {
			delete(a.fnInfos, t)
		}
	}
	for m, v := range a.evalResults {
		if int(v) >= nVars {
			delete(a.evalResults, m)
		}
	}
	for n, v := range a.globals {
		if int(v) >= nVars {
			delete(a.globals, n)
		}
	}
	for s, v := range a.dynReads {
		if int(v) >= nVars {
			delete(a.dynReads, s)
		}
	}
	for _, k := range a.journal.loadSeen {
		delete(a.loadSeen, k)
	}
	for _, s := range a.journal.dynRequires {
		delete(a.dynRequires, s)
	}
	// A name woken in the window sleeps again, and its waiting list loses
	// the reads appended in the window, which sit at the list's tail.
	for _, n := range a.journal.accessorWakes {
		a.accessors[n].awake = false
	}
	for _, n := range a.journal.accessorWaits {
		w := a.accessors[n]
		w.waiting = w.waiting[:len(w.waiting)-1]
	}
	a.journal = &deltaJournal{}
	a.cg = rb.baseCG.Clone()
	a.opts = rb.opts
	a.hintTokenEligible = rb.elig
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
