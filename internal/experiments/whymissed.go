package experiments

import (
	"fmt"
	"io"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/fuzz"
	"repro/internal/static"
)

// BenchmarkAttribution is the root-cause attribution of one benchmark's
// missed dynamic edges.
type BenchmarkAttribution struct {
	Name   string
	Causes []fuzz.RootCause
}

// WhyMissedReport answers "why is this edge missing?" for every dynamic
// call edge the extended static graph lacks, across the corpus benchmarks
// that carry dynamic ground truth.
type WhyMissedReport struct {
	Benchmarks []BenchmarkAttribution
	// Fixes ranks the attributions into actionable suggestions, across all
	// benchmarks, most-covering first.
	Fixes []fuzz.Fix
}

// TotalMissed counts the attributed edges.
func (r *WhyMissedReport) TotalMissed() int {
	n := 0
	for _, b := range r.Benchmarks {
		n += len(b.Causes)
	}
	return n
}

// Unattributed counts edges no taxonomy signal matched. CI requires zero:
// every corpus miss must have a named root cause.
func (r *WhyMissedReport) Unattributed() int {
	n := 0
	for _, b := range r.Benchmarks {
		for _, rc := range b.Causes {
			if rc.Cause == fuzz.CauseUnattributed {
				n++
			}
		}
	}
	return n
}

// RunWhyMissed runs the full pipeline — dynamic call graph, approximate
// interpretation, incremental baseline→extended analysis with provenance —
// on every benchmark with dynamic ground truth and attributes each missed
// edge via the provenance journal. solverWorkers is the epoch engine's
// worker count (attribution output is identical at every value).
func RunWhyMissed(bs []*corpus.Benchmark, solverWorkers int) (*WhyMissedReport, error) {
	rep := &WhyMissedReport{}
	var all []fuzz.RootCause
	for _, b := range bs {
		if !b.HasDynCG {
			continue
		}
		name := b.Project.Name
		dr, err := dynGraph(b, dyncg.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: dyncg: %w", name, err)
		}
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: approx: %w", name, err)
		}
		_, ext, err := static.AnalyzeBoth(b.Project, static.Options{
			Mode: static.WithHints, Hints: ar.Hints, EvalHints: true,
			DegradeFiles:  ar.FaultedModules(),
			SolverWorkers: solverWorkers, Provenance: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: static: %w", name, err)
		}
		causes := fuzz.AttributeMissedEdges(b.Project, dr.Graph, ar, ext)
		rep.Benchmarks = append(rep.Benchmarks, BenchmarkAttribution{Name: name, Causes: causes})
		all = append(all, causes...)
	}
	rep.Fixes = fuzz.RankFixes(all)
	return rep, nil
}

// RenderWhyMissed writes the attribution report: per benchmark each missed
// edge with its bucket, cause, hint frontier, and the provenance chain of
// the nearest delivered value, followed by the ranked fix list.
func RenderWhyMissed(w io.Writer, rep *WhyMissedReport) {
	fmt.Fprintf(w, "Root-cause attribution: %d missed edge(s), %d unattributed\n",
		rep.TotalMissed(), rep.Unattributed())
	for _, b := range rep.Benchmarks {
		if len(b.Causes) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s — %d missed edge(s)\n", b.Name, len(b.Causes))
		for _, rc := range b.Causes {
			fmt.Fprintf(w, "  %s -> %s [%s]\n", rc.Edge.Site, rc.Edge.Target, rc.Bucket)
			fmt.Fprintf(w, "    cause:  %s — %s\n", rc.Cause, rc.Detail)
			if len(rc.Frontier) > 0 {
				fmt.Fprintf(w, "    hint frontier:")
				for _, f := range rc.Frontier {
					fmt.Fprintf(w, " %s", f)
				}
				fmt.Fprintln(w)
			}
			if rc.Neighbor != "" {
				fmt.Fprintf(w, "    nearest delivered: %s\n", rc.Neighbor)
				for _, step := range rc.Chain {
					fmt.Fprintf(w, "      %s\n", step)
				}
			}
		}
	}
	if len(rep.Fixes) > 0 {
		fmt.Fprintf(w, "\nRanked fixes:\n")
		for _, f := range rep.Fixes {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
}
