package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dyncg"
	"repro/internal/modules"
	"repro/internal/static"
)

// twoPassOutcome evaluates one benchmark the way runBenchmark would without
// the incremental resume: baseline and extended are two from-scratch
// static.Analyze calls. Only the fields strip compares are filled in.
func twoPassOutcome(t *testing.T, b *corpus.Benchmark) *Outcome {
	t.Helper()
	name := b.Project.Name
	out := &Outcome{Name: name, HasDynCG: b.HasDynCG}
	st, err := corpus.ComputeStats(b)
	if err != nil {
		t.Fatal(err)
	}
	out.Stats = st
	ar, err := approx.Run(b.Project, approx.Options{})
	if err != nil {
		t.Fatalf("%s: approx: %v", name, err)
	}
	out.HintCount = ar.Hints.Count()
	out.VisitedRatio = ar.VisitedRatio()
	base, err := static.Analyze(b.Project, static.Options{Mode: static.Baseline})
	if err != nil {
		t.Fatalf("%s: baseline: %v", name, err)
	}
	ext, err := static.Analyze(b.Project, static.Options{
		Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules(),
	})
	if err != nil {
		t.Fatalf("%s: extended: %v", name, err)
	}
	out.Base, out.Ext = base.Metrics(), ext.Metrics()
	if b.HasDynCG {
		dr, err := dyncg.Build(b.Project, dyncg.Options{})
		if err != nil {
			t.Fatalf("%s: dyncg: %v", name, err)
		}
		out.DynEdges = dr.Graph.NumEdges()
		out.BaseAcc = callgraph.CompareWithDynamic(base.Graph, dr.Graph)
		out.ExtAcc = callgraph.CompareWithDynamic(ext.Graph, dr.Graph)
	}
	return out
}

// TestIncrementalMatchesTwoPassOutcomes asserts the combined
// baseline+extended path produces outcomes — and therefore rendered
// reports, which are pure functions of the timing-free outcome fields —
// identical to two from-scratch analyses per benchmark.
func TestIncrementalMatchesTwoPassOutcomes(t *testing.T) {
	// Fresh benchmark sets per path so neither run sees warm parse caches.
	incBenches := slice(t, 6)
	twoBenches := slice(t, 6)

	inc, err := RunCorpusOpts(incBenches, Options{WithDynCG: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	two := make([]*Outcome, len(twoBenches))
	for i, b := range twoBenches {
		two[i] = twoPassOutcome(t, b)
	}
	if len(inc) != len(two) {
		t.Fatalf("outcome counts differ: %d vs %d", len(inc), len(two))
	}
	for i := range inc {
		a, b := strip(inc[i]), strip(two[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("outcome %d differs:\nincremental: %+v\ntwo-pass:    %+v", i, a, b)
		}
	}

	// Spot-check the rendered reports byte for byte on the time-free
	// tables (Table 3 prints wall times, which vary run to run by nature).
	for _, render := range []struct {
		name string
		do   func(w *bytes.Buffer, outs []*Outcome)
	}{
		{"table1", func(w *bytes.Buffer, outs []*Outcome) { RenderTable1(w, outs) }},
		{"fig4", func(w *bytes.Buffer, outs []*Outcome) { RenderFigure(w, outs, 4) }},
		{"table2", func(w *bytes.Buffer, outs []*Outcome) { RenderTable2(w, outs) }},
	} {
		var bufInc, bufTwo bytes.Buffer
		render.do(&bufInc, inc)
		render.do(&bufTwo, two)
		if bufInc.String() != bufTwo.String() {
			t.Errorf("%s reports differ:\nincremental:\n%s\ntwo-pass:\n%s",
				render.name, bufInc.String(), bufTwo.String())
		}
	}
}

// TestDynCGMemoBuildsOnce asserts that one evaluation — a corpus run and
// the ablation pass that reuses its outcome — builds a project's dynamic
// call graph exactly once, and that nothing outlives the evaluation: a
// second evaluation of the same project builds it again.
func TestDynCGMemoBuildsOnce(t *testing.T) {
	builds := 0
	saved := buildDynCG
	buildDynCG = func(p *modules.Project, opts dyncg.Options) (*dyncg.Result, error) {
		builds++
		return saved(p, opts)
	}
	defer func() { buildDynCG = saved }()

	// A benchmark whose ablation arms differ, so RunAblationReusing needs
	// the dynamic graph for the name-only precision.
	var b *corpus.Benchmark
	for _, cand := range corpus.WithDynCG() {
		ar, err := approx.Run(cand.Project, approx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if static.WriteHintsApply(ar.Hints) {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("no dyn-CG benchmark with [DPW] write hints available")
	}
	for eval := 1; eval <= 2; eval++ {
		builds = 0
		outs, err := RunCorpusOpts([]*corpus.Benchmark{b}, Options{WithDynCG: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunAblationReusing(b, outs[0]); err != nil {
			t.Fatal(err)
		}
		if builds != 1 {
			t.Fatalf("evaluation %d built the dynamic call graph %d times, want 1", eval, builds)
		}
	}
}
