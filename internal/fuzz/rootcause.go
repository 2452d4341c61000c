package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/dyncg"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/static"
)

// Cause is the root-cause taxonomy for a dynamic call edge the extended
// static graph misses. Every missed edge is the end of the same story —
// the approximate interpreter failed to observe the value the static
// analysis needed a hint for — and the taxonomy names the chapter where
// the story went wrong.
type Cause string

const (
	// CauseLenientDivergence: the interpreter executed the relevant code
	// but its lenient/forced execution took values different from the
	// recorded dynamic run, so the hint frontier saw the wrong objects.
	CauseLenientDivergence Cause = "lenient-branch-divergence"
	// CauseBudgetExhaustion: the interpreter's execution budget aborted
	// items in the involved modules, cutting observation short.
	CauseBudgetExhaustion Cause = "interpreter-budget-exhaustion"
	// CauseUnmodeledBuiltin: the edge runs through a built-in whose
	// callback dispatch the static native model does not wire.
	CauseUnmodeledBuiltin Cause = "unmodeled-builtin"
	// CauseMissingHint: the interpreter never executed the code that
	// would have produced the hint — typically a module outside the
	// interpreted entry points allocating the value or hosting the site.
	CauseMissingHint Cause = "missing-hint"
	// CauseDegradedModule: a module involved in the edge faulted during
	// pre-analysis and was degraded to baseline-only constraints, so its
	// hints were deliberately dropped.
	CauseDegradedModule Cause = "degraded-module"
	// CauseUnattributed: no signal matched; the attributor's taxonomy is
	// incomplete for this edge (a bug in the attributor, not the analysis).
	CauseUnattributed Cause = "unattributed"
)

// RootCause is the attribution of one missed dynamic edge: the syntactic
// bucket, the taxonomy cause, a one-line explanation, the hint-injection
// frontier the flow would have had to enter through, and the provenance
// chain of the nearest value that DID reach the call site.
type RootCause struct {
	Edge   Edge
	Bucket string // syntactic bucket from ClassifyEdge
	Cause  Cause
	Detail string
	// Frontier lists dynamic-read/-write sites where a [DPR]/[DPW] hint
	// would inject the missing flow (empty when the cause needs none).
	Frontier []loc.Loc
	// Neighbor describes the nearest delivered value at the callee
	// variable, and Chain its constraint-rule justification — the working
	// derivation the missing one should mirror.
	Neighbor string
	Chain    []string
}

func (rc RootCause) String() string {
	return fmt.Sprintf("%s -> %s [%s] %s: %s",
		rc.Edge.Site, fmtTarget(rc.Edge.Target), rc.Bucket, rc.Cause, rc.Detail)
}

// AttributeMissedEdges diffs the extended static graph against the dynamic
// graph and attributes every missed edge to a root cause. ext must carry
// provenance (static.Options.Provenance); without it only the signals that
// need no constraint-system access (degradation, builtins, interpreter
// coverage) are available and the rest come back unattributed.
func AttributeMissedEdges(project *modules.Project, dyn *callgraph.Graph, ar *approx.Result, ext *static.Result) []RootCause {
	missing := MissingDynamicEdges(ext.Graph, dyn)
	faulted := ar.FaultedModules()
	out := make([]RootCause, 0, len(missing))
	for _, e := range missing {
		out = append(out, attributeOne(project, ar, faulted, ext.Provenance, e))
	}
	return out
}

func attributeOne(project *modules.Project, ar *approx.Result, faulted map[string]bool, prov *static.Provenance, e Edge) RootCause {
	rc := RootCause{Edge: e, Bucket: ClassifyEdge(project.Files, e.Site, e.Target)}

	// Degradation dominates: dropped hints explain the miss regardless of
	// what the interpreter observed.
	switch {
	case faulted[e.Site.File]:
		rc.Cause = CauseDegradedModule
		rc.Detail = e.Site.File + " faulted during pre-analysis; its hints were degraded to baseline-only constraints"
		return rc
	case faulted[e.Target.File]:
		rc.Cause = CauseDegradedModule
		rc.Detail = e.Target.File + " faulted during pre-analysis; its hints were degraded to baseline-only constraints"
		return rc
	}

	// Built-in callback dispatch (timers, forEach-style higher-order
	// natives, events) that the native model does not wire.
	if strings.HasPrefix(e.Site.File, "node:") || strings.HasPrefix(e.Target.File, "node:") {
		rc.Cause = CauseUnmodeledBuiltin
		rc.Detail = "edge runs through built-in code whose callback dispatch the native model does not wire"
		return rc
	}

	siteSeen := ar.ModulesSeen[e.Site.File]
	targetSeen := ar.ModulesSeen[e.Target.File] || ar.VisitedFuncs[loc.Loc(e.Target)]

	if prov == nil {
		return attributeCoverageOnly(rc, ar, siteSeen, targetSeen, e)
	}

	// Module-function target: the missed edge is a require() linkage.
	if callgraph.IsModuleFunc(e.Target) {
		return attributeRequire(rc, ar, prov, e, siteSeen)
	}

	cs, haveSite := prov.CallSite(e.Site)
	if !haveSite {
		// The call site has no record in the constraint system at all —
		// the code containing it was never statically generated (e.g.
		// dynamically generated code whose eval hint was never observed).
		rc.Cause = CauseMissingHint
		rc.Detail = "call site is absent from the static constraint system; the code containing it was never analyzed (missing eval-code hint?)"
		return rc
	}

	// The hint-injection frontier: where would the missing value have had
	// to enter the constraint system?
	rc.Frontier = prov.ReadFrontier([]static.Var{cs.Callee})
	if cs.Kind == "member" && cs.HasRecv {
		rc.Frontier = mergeLocs(rc.Frontier, prov.WriteFrontier(cs.Recv))
	}
	if nb, chain, ok := prov.NearestDelivered(cs.Callee, e.Target.File); ok {
		rc.Neighbor = nb.String()
		rc.Chain = chain
	}

	// Sanity: if the target's function token IS in the callee set the call
	// graph should have the edge; a miss here is an attributor-visible
	// solver bug, not an interpretation gap.
	if t, ok := prov.FuncToken(loc.Loc(e.Target)); ok && prov.HasToken(cs.Callee, t) {
		rc.Cause = CauseUnattributed
		rc.Detail = "target token was delivered to the callee variable yet the edge is absent — solver/call-graph inconsistency"
		return rc
	}

	switch {
	case !siteSeen:
		rc.Cause = CauseMissingHint
		rc.Detail = fmt.Sprintf("the interpreter never executed %s, so the dynamic operation feeding this call was never observed and no hint exists for its frontier", e.Site.File)
	case !targetSeen:
		rc.Cause = CauseMissingHint
		rc.Detail = fmt.Sprintf("the interpreter never executed %s, so the target value was never allocated where the frontier could observe it", e.Target.File)
	case ar.AbortedIn[e.Site.File] > 0 || ar.AbortedIn[e.Target.File] > 0:
		rc.Cause = CauseBudgetExhaustion
		rc.Detail = fmt.Sprintf("the interpreter budget aborted %d item(s) in the involved modules before the value could reach the frontier",
			ar.AbortedIn[e.Site.File]+ar.AbortedIn[e.Target.File])
	default:
		rc.Cause = CauseLenientDivergence
		rc.Detail = "both modules executed without aborts, but lenient interpretation observed different values at the frontier than the recorded run"
	}
	return rc
}

// attributeRequire handles missed module edges (a require() linkage the
// static analysis did not make).
func attributeRequire(rc RootCause, ar *approx.Result, prov *static.Provenance, e Edge, siteSeen bool) RootCause {
	lit, isDyn, isReq := prov.RequireSite(e.Site)
	switch {
	case !isReq:
		rc.Cause = CauseMissingHint
		rc.Detail = "dynamic run loaded a module here, but the site is not a require() call in the constraint system (aliased or generated require)"
	case lit != "":
		rc.Cause = CauseUnattributed
		rc.Detail = fmt.Sprintf("literal require(%q) failed to link statically — resolution bug rather than an interpretation gap", lit)
	case !siteSeen:
		rc.Cause = CauseMissingHint
		rc.Detail = fmt.Sprintf("dynamic require specifier: the interpreter never executed %s, so no module-load hint was recorded", e.Site.File)
	case hasModuleHint(ar, e):
		rc.Cause = CauseLenientDivergence
		rc.Detail = "a module-load hint exists for this site but links a different path than the recorded run loaded"
	case isDyn && ar.AbortedIn[e.Site.File] > 0:
		rc.Cause = CauseBudgetExhaustion
		rc.Detail = "dynamic require specifier: the interpreter aborted in this module before the require executed"
	default:
		rc.Cause = CauseLenientDivergence
		rc.Detail = "dynamic require specifier: the interpreter executed the module but computed a different specifier than the recorded run"
	}
	return rc
}

func hasModuleHint(ar *approx.Result, e Edge) bool {
	if ar.Hints == nil {
		return false
	}
	for mh := range ar.Hints.Modules {
		if mh.Site == e.Site && mh.Path == e.Target.File {
			return true
		}
	}
	return false
}

// attributeCoverageOnly is the no-provenance fallback: interpreter-coverage
// signals only.
func attributeCoverageOnly(rc RootCause, ar *approx.Result, siteSeen, targetSeen bool, e Edge) RootCause {
	switch {
	case !siteSeen || !targetSeen:
		rc.Cause = CauseMissingHint
		rc.Detail = "a module involved in the edge was never interpreted (provenance disabled; coverage signal only)"
	case ar.AbortedIn[e.Site.File] > 0 || ar.AbortedIn[e.Target.File] > 0:
		rc.Cause = CauseBudgetExhaustion
		rc.Detail = "interpreter budget aborted items in the involved modules (provenance disabled; coverage signal only)"
	default:
		rc.Cause = CauseUnattributed
		rc.Detail = "no coverage signal matched and provenance is disabled"
	}
	return rc
}

func mergeLocs(a, b []loc.Loc) []loc.Loc {
	set := map[loc.Loc]bool{}
	for _, l := range a {
		set[l] = true
	}
	for _, l := range b {
		set[l] = true
	}
	out := make([]loc.Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// AttributeRepro re-runs the pipeline on a reproducer's program with
// provenance enabled and attributes every missed dynamic edge. Used by the
// cmd/fuzz annotator to embed causes in reproducer headers and by the test
// that keeps the open reproducers' recorded causes honest.
//
// Unlike evaluate -why-missed and the daemon's /provenance, which journal
// the run they explain, this solve is its own: a reproducer file records
// only the program, so there is no earlier run to reuse. It solves the
// way the fuzz oracles do, with EvalHints, because that is the run that
// found the reproducer.
func AttributeRepro(r *Repro) ([]RootCause, error) {
	project := newFuzzProject(r.Files, r.Entries)
	dyn, err := dyncg.Build(project, dyncg.Options{})
	if err != nil {
		return nil, fmt.Errorf("dyncg: %w", err)
	}
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	_, ext, err := static.AnalyzeBoth(project, static.Options{
		Mode: static.WithHints, Hints: ar.Hints, EvalHints: true,
		DegradeFiles: ar.FaultedModules(),
		Provenance:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	return AttributeMissedEdges(project, dyn.Graph, ar, ext), nil
}

// Annotate embeds the first attribution's cause and chain summary in the
// reproducer header (the edge named in Detail is always the first missed
// edge in deterministic order).
func (r *Repro) Annotate(causes []RootCause) {
	if len(causes) == 0 {
		return
	}
	rc := causes[0]
	r.Cause = fmt.Sprintf("%s — %s", rc.Cause, rc.Detail)
	r.Chain = nil
	if rc.Neighbor != "" {
		r.Chain = append(r.Chain, "nearest delivered: "+rc.Neighbor)
		r.Chain = append(r.Chain, rc.Chain...)
	}
	for _, f := range rc.Frontier {
		r.Chain = append(r.Chain, "hint frontier: "+f.String())
	}
}

// Fix is one entry of the ranked fix list: a cause, the place to act on,
// how many missed edges it covers, and the suggested action.
type Fix struct {
	Cause Cause
	Where string
	Count int
	Hint  string
}

func (f Fix) String() string {
	return fmt.Sprintf("%3d× %-29s %s — %s", f.Count, f.Cause, f.Where, f.Hint)
}

// RankFixes groups attributions into actionable fixes, most-covering first.
func RankFixes(causes []RootCause) []Fix {
	type key struct {
		cause Cause
		where string
	}
	agg := map[key]int{}
	for _, rc := range causes {
		agg[key{rc.Cause, fixLocus(rc)}]++
	}
	fixes := make([]Fix, 0, len(agg))
	for k, n := range agg {
		fixes = append(fixes, Fix{Cause: k.cause, Where: k.where, Count: n, Hint: fixHint(k.cause)})
	}
	sort.Slice(fixes, func(i, j int) bool {
		if fixes[i].Count != fixes[j].Count {
			return fixes[i].Count > fixes[j].Count
		}
		if fixes[i].Cause != fixes[j].Cause {
			return fixes[i].Cause < fixes[j].Cause
		}
		return fixes[i].Where < fixes[j].Where
	})
	return fixes
}

// fixLocus picks the place a fix for rc would act on.
func fixLocus(rc RootCause) string {
	switch rc.Cause {
	case CauseMissingHint:
		// Prefer the module whose absence from interpretation caused the
		// miss; Detail names it, but the file fields are structured.
		if rc.Edge.Target.File != "" && strings.Contains(rc.Detail, rc.Edge.Target.File) {
			return rc.Edge.Target.File
		}
		return rc.Edge.Site.File
	case CauseDegradedModule, CauseBudgetExhaustion:
		return rc.Edge.Site.File
	case CauseUnmodeledBuiltin:
		if strings.HasPrefix(rc.Edge.Site.File, "node:") {
			return rc.Edge.Site.File
		}
		return rc.Edge.Target.File
	default:
		if len(rc.Frontier) > 0 {
			return rc.Frontier[0].String()
		}
		return rc.Edge.Site.String()
	}
}

func fixHint(c Cause) string {
	switch c {
	case CauseMissingHint:
		return "add the module (or a caller of it) to the interpreted entry points so its values are observed"
	case CauseBudgetExhaustion:
		return "raise the interpreter loop/step budgets for this module"
	case CauseUnmodeledBuiltin:
		return "model the built-in's callback dispatch in the static native layer"
	case CauseDegradedModule:
		return "fix the pre-analysis fault so the module's hints are not degraded"
	case CauseLenientDivergence:
		return "extend forced-branch coverage or seed the interpreter with the recorded run's inputs"
	default:
		return "extend the attributor taxonomy to cover this edge"
	}
}
