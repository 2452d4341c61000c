package experiments

import (
	"fmt"
	"io"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/static"
)

// ExtensionOutcome measures the effect of the §6 "potential improvements"
// implemented in this reproduction: the unknown-function-arguments
// property-name hints, the dynamically-generated-code hints, and the
// per-package hint-reuse cache.
type ExtensionOutcome struct {
	Name string

	// Call edges under: plain hints, +unknown-arg hints, +eval-code hints,
	// +both.
	EdgesPlain      int
	EdgesUnknownArg int
	EdgesEvalCode   int
	EdgesBoth       int

	// Hint-reuse statistics over the project's packages.
	Packages    int
	CacheHits   int
	CacheMisses int
}

// RunExtensions evaluates the §6 extensions on one project. prior, when
// non-nil, is the main corpus run's outcome for the same project: its
// extended analysis solved the identical constraint system as the
// plain-hints variant, so that re-solve is skipped (only when the outcome
// is fault-free — degradation changes the extended graph). Pass nil to
// solve all four variants from scratch.
func RunExtensions(project *modules.Project, cache *approx.Cache, prior *Outcome) (*ExtensionOutcome, error) {
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		return nil, err
	}
	out := &ExtensionOutcome{Name: project.Name}

	analyze := func(unknownArgs, evalCode bool) (int, error) {
		res, err := static.Analyze(project, static.Options{
			Mode:            static.WithHints,
			Hints:           ar.Hints,
			UnknownArgHints: unknownArgs,
			EvalHints:       evalCode,
		})
		if err != nil {
			return 0, err
		}
		return res.Graph.NumEdges(), nil
	}
	if prior != nil && prior.Name == project.Name &&
		len(prior.Faults) == 0 && len(prior.DegradedModules) == 0 {
		out.EdgesPlain = prior.Ext.CallEdges
	} else if out.EdgesPlain, err = analyze(false, false); err != nil {
		return nil, err
	}

	// Variants whose hint delta is empty solve the identical constraint
	// system as an already-solved variant; reuse that result instead of
	// re-running the fixpoint (most projects observe no proxy reads or eval
	// code, so this skips the bulk of the variant solves).
	argsApply := static.UnknownArgHintsApply(ar.Hints)
	evalApply := static.EvalHintsApply(ar.Hints)
	if !argsApply {
		out.EdgesUnknownArg = out.EdgesPlain
	} else if out.EdgesUnknownArg, err = analyze(true, false); err != nil {
		return nil, err
	}
	if !evalApply {
		out.EdgesEvalCode = out.EdgesPlain
	} else if out.EdgesEvalCode, err = analyze(false, true); err != nil {
		return nil, err
	}
	switch {
	case !argsApply && !evalApply:
		out.EdgesBoth = out.EdgesPlain
	case !argsApply:
		out.EdgesBoth = out.EdgesEvalCode
	case !evalApply:
		out.EdgesBoth = out.EdgesUnknownArg
	default:
		if out.EdgesBoth, err = analyze(true, true); err != nil {
			return nil, err
		}
	}

	if cache != nil {
		h0, m0 := cache.Hits, cache.Misses
		if _, err := approx.RunWithCache(project, cache, approx.Options{}); err != nil {
			return nil, err
		}
		out.CacheHits = cache.Hits - h0
		out.CacheMisses = cache.Misses - m0
		out.Packages = len(project.Packages()) - 1 // excluding <main>
	}
	return out, nil
}

// RunExtensionsCorpus evaluates the §6 extensions over benchmarks sharing
// one hint cache (so identical packages across projects hit the cache).
// prior maps benchmark name to the main corpus run's outcome for that
// project, letting each extension evaluation reuse its solved results (see
// RunExtensions); pass nil to solve everything from scratch.
func RunExtensionsCorpus(bs []*corpus.Benchmark, prior map[string]*Outcome) ([]*ExtensionOutcome, error) {
	cache := approx.NewCache()
	var outs []*ExtensionOutcome
	for _, b := range bs {
		o, err := RunExtensions(b.Project, cache, prior[b.Project.Name])
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// RenderExtensions prints the §6-extension comparison.
func RenderExtensions(w io.Writer, outs []*ExtensionOutcome) {
	fmt.Fprintln(w, "§6 extensions: call edges under each hint-consumption variant,")
	fmt.Fprintln(w, "and per-package hint-cache reuse.")
	fmt.Fprintf(w, "%-28s %8s %8s %8s %8s %14s\n",
		"Benchmark", "plain", "+args", "+eval", "+both", "cache hit/miss")
	for _, o := range outs {
		fmt.Fprintf(w, "%-28s %8d %8d %8d %8d %9d/%d\n",
			o.Name, o.EdgesPlain, o.EdgesUnknownArg, o.EdgesEvalCode, o.EdgesBoth,
			o.CacheHits, o.CacheMisses)
	}
}
