package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
)

func slice(t *testing.T, n int) []*corpus.Benchmark {
	t.Helper()
	bs := corpus.WithDynCG()
	if len(bs) < n {
		t.Fatalf("corpus too small: %d", len(bs))
	}
	return bs[:n]
}

func TestRunBenchmark(t *testing.T) {
	b := corpus.ByName("motivating-express")
	o, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "motivating-express" || !o.HasDynCG {
		t.Errorf("outcome header wrong: %+v", o)
	}
	if o.Stats.Functions == 0 || o.Stats.Modules == 0 {
		t.Error("stats empty")
	}
	if o.HintCount == 0 {
		t.Error("no hints")
	}
	if o.Ext.CallEdges <= o.Base.CallEdges {
		t.Error("no call-edge improvement")
	}
	if o.DynEdges == 0 {
		t.Error("no dynamic edges")
	}
	if o.ExtAcc.Recall <= o.BaseAcc.Recall {
		t.Errorf("recall did not improve: %.1f → %.1f", o.BaseAcc.Recall, o.ExtAcc.Recall)
	}
	if o.ApproxTime <= 0 || o.BaselineTime <= 0 || o.ExtendedTime <= 0 {
		t.Error("missing timings")
	}
}

// TestFullPipeline runs every phase of the evaluation on the paper's
// example, the §4 ablation arm included.
func TestFullPipeline(t *testing.T) {
	o, err := runBenchmark(corpus.ByName("motivating-express"), Options{WithDynCG: true, WithAblation: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.HintCount == 0 {
		t.Fatal("pre-analysis produced nothing")
	}
	if o.Ext.CallEdges <= o.Base.CallEdges {
		t.Errorf("extended edges %d ≤ baseline %d", o.Ext.CallEdges, o.Base.CallEdges)
	}
	if o.DynEdges == 0 {
		t.Fatal("no dynamic call graph")
	}
	if o.ExtAcc.Recall <= o.BaseAcc.Recall {
		t.Errorf("recall did not improve: %.1f → %.1f", o.BaseAcc.Recall, o.ExtAcc.Recall)
	}
	if !o.hasAbl {
		t.Error("no ablation arm")
	}
}

func TestAggregate(t *testing.T) {
	outs, err := RunCorpus(slice(t, 6), true)
	if err != nil {
		t.Fatal(err)
	}
	s := Aggregate(outs)
	if s.Projects != 6 {
		t.Errorf("Projects = %d", s.Projects)
	}
	if s.DynProjects == 0 {
		t.Error("no dyn projects aggregated")
	}
	if s.HintsMax < s.HintsMedian || s.HintsMedian < s.HintsMin {
		t.Errorf("hint ordering broken: %d/%d/%d", s.HintsMin, s.HintsMedian, s.HintsMax)
	}
	if s.AvgVisitedRatio <= 0 || s.AvgVisitedRatio > 1 {
		t.Errorf("visited ratio = %v", s.AvgVisitedRatio)
	}
}

func TestVulnStudyConsistency(t *testing.T) {
	bs := slice(t, 5)
	outs, err := RunCorpus(bs, false)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := VulnStudy(bs, outs)
	if err != nil {
		t.Fatal(err)
	}
	if vr.ReachableBaseline > vr.TotalVulns || vr.ReachableExtended > vr.TotalVulns {
		t.Errorf("reachable exceeds total: %+v", vr)
	}
	if vr.ReachableExtended < vr.ReachableBaseline {
		t.Errorf("hints lost advisory reachability: %+v", vr)
	}
	// Per-slice sums equal whole-slice result.
	var sum VulnResult
	for i := range bs {
		one, err := VulnStudy(bs[i:i+1], outs[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		sum.TotalVulns += one.TotalVulns
		sum.ReachableBaseline += one.ReachableBaseline
		sum.ReachableExtended += one.ReachableExtended
	}
	if sum.TotalVulns != vr.TotalVulns || sum.ReachableBaseline != vr.ReachableBaseline {
		t.Errorf("slice sums disagree: %+v vs %+v", sum, vr)
	}
}

func TestRenderers(t *testing.T) {
	outs, err := RunCorpus(slice(t, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderTable1(&sb, outs)
	RenderFigure(&sb, outs, 4)
	RenderFigure(&sb, outs, 5)
	RenderFigure(&sb, outs, 6)
	RenderFigure(&sb, outs, 7)
	RenderTable2(&sb, outs)
	RenderTable3(&sb, outs)
	RenderSummary(&sb, Aggregate(outs))
	RenderHintStats(&sb, outs)
	Banner(&sb, "x")
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Table 2", "Table 3", "Corpus summary", "Hint statistics",
		"motivating-express",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestOutcomeDeterminism(t *testing.T) {
	b := corpus.ByName("mini-middleware")
	o1, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RunBenchmark(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Base.CallEdges != o2.Base.CallEdges || o1.Ext.CallEdges != o2.Ext.CallEdges {
		t.Error("edge counts vary between runs")
	}
	if o1.BaseAcc != o2.BaseAcc || o1.ExtAcc != o2.ExtAcc {
		t.Error("accuracy varies between runs")
	}
	if o1.HintCount != o2.HintCount {
		t.Error("hint counts vary between runs")
	}
}

func TestRunExtensions(t *testing.T) {
	b := corpus.ByName("mini-schema")
	o, err := RunExtensions(b.Project, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// mini-schema builds getters through eval: the eval-code extension must
	// add edges over the plain run.
	if o.EdgesEvalCode <= o.EdgesPlain {
		t.Errorf("eval-code extension added nothing: plain=%d eval=%d",
			o.EdgesPlain, o.EdgesEvalCode)
	}
	if o.EdgesBoth < o.EdgesEvalCode {
		t.Errorf("both extensions lost edges: %d < %d", o.EdgesBoth, o.EdgesEvalCode)
	}
	if o.EdgesUnknownArg < o.EdgesPlain {
		t.Errorf("unknown-arg extension removed edges: %d < %d", o.EdgesUnknownArg, o.EdgesPlain)
	}
	var sb strings.Builder
	RenderExtensions(&sb, []*ExtensionOutcome{o})
	if !strings.Contains(sb.String(), "mini-schema") {
		t.Error("render missing benchmark name")
	}
}

// TestRunExtensionsPrior covers the prior-reuse path of RunExtensions:
// given the main run's outcomes it reports exactly what solving every
// variant from scratch reports, it takes the plain-hints edge count from a
// clean prior, and it re-solves when the prior saw faults or degradation
// or belongs to another project.
func TestRunExtensionsPrior(t *testing.T) {
	bs := corpus.WithDynCG()[:12]
	outs, err := RunCorpus(bs, false)
	if err != nil {
		t.Fatal(err)
	}
	prior := map[string]*Outcome{}
	for _, o := range outs {
		prior[o.Name] = o
	}
	want, err := RunExtensionsCorpus(bs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunExtensionsCorpus(bs, prior)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: with prior %+v, from scratch %+v", want[i].Name, *got[i], *want[i])
		}
	}

	// A sentinel edge count shows whether the prior's extended result was
	// used or the plain-hints variant was solved again.
	const sentinel = -1
	b := bs[0]
	clean := *prior[b.Project.Name]
	clean.Ext.CallEdges = sentinel
	o, err := RunExtensions(b.Project, nil, &clean)
	if err != nil {
		t.Fatal(err)
	}
	if o.EdgesPlain != sentinel {
		t.Errorf("clean prior: plain edges %d, want the prior's %d", o.EdgesPlain, sentinel)
	}
	faulted, degraded, other := clean, clean, clean
	faulted.Faults = []fault.Record{{Phase: "approx", Detail: "injected"}}
	degraded.DegradedModules = []string{"index.js"}
	other.Name = "another-project"
	for name, p := range map[string]*Outcome{"faulted": &faulted, "degraded": &degraded, "other project": &other} {
		o, err := RunExtensions(b.Project, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if o.EdgesPlain != want[0].EdgesPlain {
			t.Errorf("%s prior: plain edges %d, want the re-solved %d", name, o.EdgesPlain, want[0].EdgesPlain)
		}
	}
}

func TestScalability(t *testing.T) {
	outs, err := RunCorpus(slice(t, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	rows := Scalability(outs)
	total := 0
	for _, r := range rows {
		total += r.Projects
		if r.Projects > 0 && (r.AvgApprox <= 0 || r.AvgBase <= 0) {
			t.Errorf("tier %s has zero averages: %+v", r.Tier, r)
		}
	}
	if total != 8 {
		t.Errorf("tier assignment lost projects: %d of 8", total)
	}
	var sb strings.Builder
	RenderScalability(&sb, rows)
	if !strings.Contains(sb.String(), "Scalability") {
		t.Error("render output wrong")
	}
}
