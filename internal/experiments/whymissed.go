package experiments

import (
	"fmt"
	"io"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
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

// journaledRun is what root-cause attribution reads from one benchmark's
// run: its pre-analysis, its extended result with the provenance journal,
// and its dynamic call graph.
type journaledRun struct {
	ar  *approx.Result
	ext *static.Result
	dyn *callgraph.Graph
}

// RunWhyMissed evaluates every benchmark with dynamic ground truth under
// the report's options, with the provenance journal on, and attributes
// each dynamic edge its extended graph misses to a root cause. The graph
// explained is the one Table 2 reports: same hints, degradation,
// deadlines and solver workers, and no §6 eval-code hints. Benchmarks run
// one at a time, whatever opts.Workers says, so that one journal is live
// at a time; opts.Cache and opts.WithAblation are ignored (a cache hit
// skips the run that would be explained, and the ablation arm refuses a
// journal). Attribution output is identical at every solver worker count.
func RunWhyMissed(bs []*corpus.Benchmark, opts Options) (*WhyMissedReport, error) {
	opts.WithDynCG, opts.WithAblation, opts.Cache = true, false, nil
	rep := &WhyMissedReport{}
	var all []fuzz.RootCause
	for _, b := range bs {
		if !b.HasDynCG {
			continue
		}
		var jr journaledRun
		if _, err := runBenchmark(b, opts, &jr); err != nil {
			return nil, err
		}
		causes := fuzz.AttributeMissedEdges(b.Project, jr.dyn, jr.ar, jr.ext)
		rep.Benchmarks = append(rep.Benchmarks, BenchmarkAttribution{Name: b.Project.Name, Causes: causes})
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
