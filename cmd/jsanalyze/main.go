// Command jsanalyze runs the static call-graph and points-to analysis on a
// project, with or without hints from approximate interpretation (the
// paper's phase 2), and reports the §5 metrics and the call graph.
//
// Usage:
//
//	jsanalyze -corpus motivating-express                 # baseline vs hints
//	jsanalyze -dir ./proj -hints hints.json -edges       # with precomputed hints
//	jsanalyze -corpus mini-router -baseline-only -edges  # baseline call graph
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/hints"
	"repro/internal/modules"
	"repro/internal/static"
)

func main() {
	var (
		dir          = flag.String("dir", "", "project directory to analyze")
		corpusName   = flag.String("corpus", "", "built-in benchmark to analyze")
		hintsFile    = flag.String("hints", "", "hints JSON produced by approxinterp (default: run the pre-analysis inline)")
		baselineOnly = flag.Bool("baseline-only", false, "run only the baseline analysis")
		edges        = flag.Bool("edges", false, "print call edges")
		withDyn      = flag.Bool("dyncg", false, "also build a dynamic call graph and report recall/precision")
		disableDPR   = flag.Bool("no-dpr", false, "disable the read-hint rule [DPR]")
		unknownArgs  = flag.Bool("unknown-args", false, "enable the §6 unknown-function-arguments extension")
	)
	flag.Parse()

	var project *modules.Project
	switch {
	case *dir != "":
		p, err := modules.LoadDir(*dir)
		if err != nil {
			fatal(err)
		}
		project = p
	case *corpusName != "":
		b := corpus.ByName(*corpusName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *corpusName))
		}
		project = b.Project
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Without -baseline-only, baseline and extended come from one
	// incremental solve: the baseline fixpoint, then the hint deltas.
	var base, ext *static.Result
	var approxLine string
	if *baselineOnly {
		var err error
		if base, err = static.Analyze(project, static.Options{Mode: static.Baseline}); err != nil {
			fatal(err)
		}
	} else {
		var h *hints.Hints
		if *hintsFile != "" {
			f, err := os.Open(*hintsFile)
			if err != nil {
				fatal(err)
			}
			h, err = hints.ReadJSON(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
		} else {
			ar, err := approx.Run(project, approx.Options{})
			if err != nil {
				fatal(err)
			}
			h = ar.Hints
			approxLine = fmt.Sprintf("approx:    %d hints, %d/%d functions visited, %s\n",
				h.Count(), ar.FunctionsVisited, ar.FunctionsTotal, ar.Duration)
		}
		var err error
		base, ext, err = static.AnalyzeBoth(project, static.Options{
			Mode: static.WithHints, Hints: h, DisableDPR: *disableDPR,
			UnknownArgHints: *unknownArgs,
		})
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("baseline:  %v  (vars=%d tokens=%d modules=%d, %s)\n",
		base.Metrics(), base.NumVars, base.NumTokens, base.AnalyzedModules, base.Duration)
	if ext != nil {
		fmt.Print(approxLine)
		fmt.Printf("extended:  %v  (%s)\n", ext.Metrics(), ext.Duration)
	}

	if *withDyn {
		dr, err := dyncg.Build(project, dyncg.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dynamic:   %d edges from %d test entries\n", dr.Graph.NumEdges(), dr.EntriesRun)
		acc := callgraph.CompareWithDynamic(base.Graph, dr.Graph)
		fmt.Printf("baseline:  recall %.1f%%  precision %.1f%%\n", acc.Recall, acc.Precision)
		if ext != nil {
			acc = callgraph.CompareWithDynamic(ext.Graph, dr.Graph)
			fmt.Printf("extended:  recall %.1f%%  precision %.1f%%\n", acc.Recall, acc.Precision)
		}
	}

	if *edges {
		g := base.Graph
		tag := "baseline"
		if ext != nil {
			g = ext.Graph
			tag = "extended"
		}
		fmt.Printf("call graph (%s):\n", tag)
		for _, site := range g.SortedSites() {
			targets := g.Targets(site)
			if len(targets) == 0 {
				continue
			}
			for _, t := range targets {
				fmt.Printf("  %v -> %v\n", site, t)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsanalyze:", err)
	os.Exit(1)
}
