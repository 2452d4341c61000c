package static

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/loc"
)

// TestProvenanceZeroOverhead is the byte-identity contract: a run with the
// journal enabled must report exactly the graphs and effort counters of a
// run without it. Provenance observes the solve; it never steers it.
func TestProvenanceZeroOverhead(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()}
	basePlain, extPlain, err := AnalyzeBoth(project, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Provenance = true
	baseProv, extProv, err := AnalyzeBoth(project, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name        string
		plain, prov *Result
	}{{"baseline", basePlain, baseProv}, {"extended", extPlain, extProv}} {
		if c.plain.SolveIterations != c.prov.SolveIterations {
			t.Errorf("%s: SolveIterations %d with provenance off, %d on",
				c.name, c.plain.SolveIterations, c.prov.SolveIterations)
		}
		if c.plain.TokensDelivered != c.prov.TokensDelivered {
			t.Errorf("%s: TokensDelivered %d with provenance off, %d on",
				c.name, c.plain.TokensDelivered, c.prov.TokensDelivered)
		}
		if pm, qm := c.plain.Metrics(), c.prov.Metrics(); pm != qm {
			t.Errorf("%s: metrics differ:\n off %+v\n on  %+v", c.name, pm, qm)
		}
	}
	if basePlain.Provenance != nil || extPlain.Provenance != nil {
		t.Error("provenance attached without Options.Provenance")
	}
	if extProv.Provenance == nil {
		t.Fatal("no provenance attached with Options.Provenance")
	}
	if e, i := extProv.Provenance.Records(); e == 0 || i == 0 {
		t.Errorf("empty journal: %d edges, %d inserts", e, i)
	}
}

// provenanceFingerprint renders every engine-visible provenance answer for
// the motivating example's key sites into one comparable string.
func provenanceFingerprint(t *testing.T, workers int) string {
	t.Helper()
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ext, err := AnalyzeBoth(project, Options{
		Mode: WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules(),
		SolverWorkers: workers, Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ext.Provenance
	var sb strings.Builder
	je, ji := p.Records()
	fmt.Fprintf(&sb, "journal: %d edges, %d inserts\n", je, ji)
	for _, site := range []loc.Loc{siteAppGet, siteAppListen} {
		cs, ok := p.CallSite(site)
		if !ok {
			t.Fatalf("workers=%d: no call-site record at %v", workers, site)
		}
		fmt.Fprintf(&sb, "%s: kind=%s prop=%s module=%s\n", site, cs.Kind, cs.Prop, cs.Module)
		fmt.Fprintf(&sb, "  tokens: %v\n", p.Tokens(cs.Callee))
		desc, chain, ok := p.NearestDelivered(cs.Callee, site.File)
		if !ok {
			t.Fatalf("workers=%d: nothing delivered at %v", workers, site)
		}
		fmt.Fprintf(&sb, "  nearest: %s\n", desc)
		for _, step := range chain {
			fmt.Fprintf(&sb, "    %s\n", step)
		}
		fmt.Fprintf(&sb, "  read frontier: %v\n", p.ReadFrontier(append([]Var{cs.Callee}, cs.Args...)))
		if cs.HasRecv {
			fmt.Fprintf(&sb, "  write frontier: %v\n", p.WriteFrontier(cs.Recv))
			fmt.Fprintf(&sb, "  proto closure: %v\n", p.ProtoClosureSites(cs.Recv))
		}
	}
	return sb.String()
}

// TestProvenanceDeterministicAcrossWorkers runs the provenance-enabled
// pipeline at the default solver setting and at several epoch-engine
// widths: every journal-derived answer — chains, frontiers, token
// descriptions, journal sizes — must be identical at every value.
func TestProvenanceDeterministicAcrossWorkers(t *testing.T) {
	want := provenanceFingerprint(t, 0)
	for _, workers := range []int{1, 4} {
		if got := provenanceFingerprint(t, workers); got != want {
			t.Errorf("provenance answers differ between -solver-workers 0 and %d:\n--- workers=0 ---\n%s--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestProvenanceExplainChain spot-checks a full justification chain: the
// app.get target reaches the callee variable through the [DPW] hint that
// installed the method table, and the chain terminates at a real insert.
func TestProvenanceExplainChain(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ext, err := AnalyzeBoth(project, Options{
		Mode: WithHints, Hints: ar.Hints, Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ext.Provenance
	cs, ok := p.CallSite(siteAppGet)
	if !ok {
		t.Fatalf("no call-site record at %v", siteAppGet)
	}
	if cs.Kind != "member" || cs.Prop != "get" {
		t.Errorf("app.get call site: kind=%q prop=%q, want member/get", cs.Kind, cs.Prop)
	}
	tok, ok := p.FuncToken(fnMethodTable)
	if !ok {
		t.Fatalf("no token for method-table function %v", fnMethodTable)
	}
	if !p.HasToken(cs.Callee, tok) {
		t.Fatalf("method-table token not delivered to app.get callee (edge exists per TestHintsRecoverDynamicEdges)")
	}
	chain := p.Explain(cs.Callee, tok)
	if len(chain) == 0 {
		t.Fatal("empty justification chain for a delivered token")
	}
	last := chain[len(chain)-1]
	if !strings.Contains(last, "⊢") {
		t.Errorf("chain does not terminate at an insert: %v", chain)
	}
	joined := strings.Join(chain, "\n")
	if !strings.Contains(joined, "dpw-hint") && !strings.Contains(joined, "dpr-hint") {
		t.Errorf("app.get derivation does not mention the dynamic-property hint:\n%s", joined)
	}

	// A token that was never delivered has no chain.
	if got := p.Explain(cs.Callee, Token(1<<30)); got != nil {
		t.Errorf("Explain of an undelivered token = %v, want nil", got)
	}
}

// TestProvenanceAblationRejected: the ablation arm forks from a snapshot
// that does not cover the journal; the combination is a configuration
// error, not a silent wrong answer.
func TestProvenanceAblationRejected(t *testing.T) {
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: WithHints, Hints: ar.Hints, Provenance: true}
	_, _, _, err = AnalyzeBothAndAblationFrom(project, opts, opts.hintSource())
	if err == nil {
		t.Fatal("AnalyzeBothAndAblationFrom accepted Provenance")
	}
	if !strings.Contains(err.Error(), "provenance") {
		t.Errorf("rejection does not name provenance: %v", err)
	}
}

// TestMiddlewareElementConflation is the minimized regression test for the
// gap class fixed in this change: a callback pushed into an array and
// invoked through a computed read (the middleware pattern). The $elem
// conflation rule resolves the dispatch in the extended analysis.
func TestMiddlewareElementConflation(t *testing.T) {
	project := motivating()
	project.Name = "middleware"
	project.Files["/app/mw.js"] = `var stack = [];
function use(fn) { stack.push(fn); }
function runAll() {
  for (var i = 0; i < stack.length; i++) {
    stack[i]();
  }
}
function handler() { return 1; }
use(handler);
runAll();
`
	project.MainEntries = append(project.MainEntries, "/app/mw.js")
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ext, err := AnalyzeBoth(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	site := loc.Loc{File: "/app/mw.js", Line: 5, Col: 13}  // stack[i]()
	target := loc.Loc{File: "/app/mw.js", Line: 8, Col: 1} // function handler()
	if !ext.Graph.HasEdge(site, target) {
		t.Errorf("middleware dispatch stack[i]() not resolved to handler; targets: %v",
			ext.Graph.Targets(site))
	}
}

// ProtoClosureSites returns the allocation sites of the non-native tokens
// in the receiver's value-or-prototype closure — the candidate hint-write
// targets for a missing member flow.
func (p *Provenance) ProtoClosureSites(recv Var) []loc.Loc {
	found := map[loc.Loc]bool{}
	for t := range p.protoClosure(recv) {
		info := p.a.tokens[t]
		switch info.kind {
		case tokObject, tokProto:
			if info.site.Valid() {
				found[info.site] = true
			}
		case tokFunction:
			found[info.fn.Loc] = true
		}
	}
	return sortedLocs(found)
}
