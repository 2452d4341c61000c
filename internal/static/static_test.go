package static

import (
	"bytes"
	"testing"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/hints"
	"repro/internal/loc"
	"repro/internal/modules"
)

// motivating reconstructs the paper's Fig. 1 Express example.
func motivating() *modules.Project {
	return &modules.Project{
		Name: "motivating",
		Files: map[string]string{
			"/app/server.js": `const express = require('express');
const app = express();
app.get('/', function(req, res) {
  res.send('Hello world!');
  server.close();
});
var server = app.listen(8080);
`,
			"/node_modules/express/index.js": `var mixin = require('merge-descriptors');
var EventEmitter = require('events');
var proto = require('./application');
exports = module.exports = createApplication;
function createApplication() {
  var app = function(req, res, next) {
    app.handle(req, res, next);
  };
  mixin(app, EventEmitter.prototype, false);
  mixin(app, proto, false);
  return app;
}
`,
			"/node_modules/merge-descriptors/index.js": `module.exports = merge;
function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
`,
			"/node_modules/express/application.js": `var methods = require('methods');
var slice = Array.prototype.slice;
var http = require('http');
var app = exports = module.exports = {};
methods.forEach(function(method) {
  app[method] = function(path) {
    var route = this._router.route(path);
    route[method].apply(route, slice.call(arguments, 1));
    return this;
  };
});
app.listen = function listen() {
  var server = http.createServer(this);
  return server.listen.apply(server, arguments);
};
`,
			"/node_modules/methods/index.js": `var base = ['get', 'post', 'put', 'delete'];
var out = [];
base.forEach(function(m) {
  out.push(m.toLowerCase());
});
module.exports = out;
`,
		},
		MainEntries: []string{"/app/server.js"},
		MainPrefix:  "/app",
	}
}

var (
	// Key locations in the example.
	siteAppGet    = loc.Loc{File: "/app/server.js", Line: 3, Col: 8}  // app.get('/') call
	siteAppListen = loc.Loc{File: "/app/server.js", Line: 7, Col: 24} // app.listen(8080) call
	fnMethodTable = loc.Loc{File: "/node_modules/express/application.js", Line: 6, Col: 17}
	fnListen      = loc.Loc{File: "/node_modules/express/application.js", Line: 12, Col: 14}
)

func analyzeBoth(t *testing.T) (base, ext *Result) {
	t.Helper()
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err = Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	ext, err = Analyze(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	return base, ext
}

func TestBaselineMissesDynamicEdges(t *testing.T) {
	base, _ := analyzeBoth(t)
	if base.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Error("baseline should MISS the app.get edge (dynamic property write ignored)")
	}
	if base.Graph.HasEdge(siteAppListen, fnListen) {
		t.Error("baseline should MISS the app.listen edge (mixin copy not modeled)")
	}
	// Sanity: baseline still resolves direct calls.
	siteExpress := loc.Loc{File: "/app/server.js", Line: 2, Col: 20} // express() call
	fnCreateApplication := loc.Loc{File: "/node_modules/express/index.js", Line: 5, Col: 1}
	if !base.Graph.HasEdge(siteExpress, fnCreateApplication) {
		t.Errorf("baseline should resolve express() → createApplication; targets: %v",
			base.Graph.Targets(siteExpress))
	}
}

func TestHintsRecoverDynamicEdges(t *testing.T) {
	_, ext := analyzeBoth(t)
	if !ext.Graph.HasEdge(siteAppGet, fnMethodTable) {
		t.Errorf("extended analysis must find app.get → method-table function; targets: %v",
			ext.Graph.Targets(siteAppGet))
	}
	if !ext.Graph.HasEdge(siteAppListen, fnListen) {
		t.Errorf("extended analysis must find app.listen → listen; targets: %v",
			ext.Graph.Targets(siteAppListen))
	}
}

// TestHintsOnlyAddEdges asserts that hints only add edges on the paper's
// example: the extended graph contains every baseline edge and strictly
// grows, also with [DPR] off ([DPW] alone, the Table 2 "*" configuration).
func TestHintsOnlyAddEdges(t *testing.T) {
	t.Run("fig1", func(t *testing.T) { checkHintsOnlyAddEdges(t, motivating(), false, true) })
	t.Run("dpw-only", func(t *testing.T) { checkHintsOnlyAddEdges(t, corpus.Motivating(), true, true) })
}

// TestPipelineOnAllMinis runs the pre-analysis, baseline and extended
// analyses on every mini benchmark and asserts that the extended graph
// contains every baseline edge.
func TestPipelineOnAllMinis(t *testing.T) {
	for _, name := range []string{
		"mini-events", "mini-middleware", "mini-validator",
		"mini-plugin-loader", "mini-schema", "mini-utilbelt", "mini-router",
	} {
		b := corpus.ByName(name)
		if b == nil {
			t.Fatalf("missing benchmark %s", name)
		}
		t.Run(name, func(t *testing.T) { checkHintsOnlyAddEdges(t, b.Project, false, false) })
	}
}

// checkHintsOnlyAddEdges analyzes project without and with its hints and
// fails if the extended graph lacks a baseline edge, or, when grows is set,
// has no more edges than the baseline.
func checkHintsOnlyAddEdges(t *testing.T, project *modules.Project, disableDPR, grows bool) {
	t.Helper()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints, DisableDPR: disableDPR})
	if err != nil {
		t.Fatal(err)
	}
	for site, targets := range base.Graph.Edges {
		for target := range targets {
			if !ext.Graph.HasEdge(site, target) {
				t.Errorf("extended analysis lost baseline edge %v → %v", site, target)
			}
		}
	}
	if grows && ext.Graph.NumEdges() <= base.Graph.NumEdges() {
		t.Errorf("extended edges (%d) should exceed baseline (%d)",
			ext.Graph.NumEdges(), base.Graph.NumEdges())
	}
}

func TestMetricsImprove(t *testing.T) {
	base, ext := analyzeBoth(t)
	bm := base.Metrics()
	em := ext.Metrics()
	if em.CallEdges <= bm.CallEdges {
		t.Errorf("call edges: baseline %d, extended %d", bm.CallEdges, em.CallEdges)
	}
	if em.ReachableFunctions < bm.ReachableFunctions {
		t.Errorf("reachable: baseline %d, extended %d", bm.ReachableFunctions, em.ReachableFunctions)
	}
	if em.ResolvedPct < bm.ResolvedPct {
		t.Errorf("resolved%%: baseline %.1f, extended %.1f", bm.ResolvedPct, em.ResolvedPct)
	}
	if em.MonomorphicPct > bm.MonomorphicPct {
		t.Errorf("monomorphic%% should not increase: baseline %.1f, extended %.1f",
			bm.MonomorphicPct, em.MonomorphicPct)
	}
}

func TestBaselineResolvesClosuresAndHigherOrder(t *testing.T) {
	project := &modules.Project{
		Name: "basics",
		Files: map[string]string{
			"/app/index.js": `
function apply(f, x) { return f(x); }
function inc(n) { return n + 1; }
var r = apply(inc, 1);

var makeCounter = function() {
  var n = 0;
  return function bump() { n++; return n; };
};
var c = makeCounter();
c();

var obj = {
  m: function method() { return 1; }
};
obj.m();

function Ctor() { this.v = 1; }
Ctor.prototype.getV = function getV() { return this.v; };
var inst = new Ctor();
inst.getV();
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	res, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	check := func(siteLine, siteCol, fnLine, fnCol int, what string) {
		site := loc.Loc{File: "/app/index.js", Line: siteLine, Col: siteCol}
		fn := loc.Loc{File: "/app/index.js", Line: fnLine, Col: fnCol}
		if !g.HasEdge(site, fn) {
			t.Errorf("%s: missing edge %v → %v; targets: %v", what, site, fn, g.Targets(site))
		}
	}
	check(4, 14, 2, 1, "apply(inc, 1) → apply")
	// call inside apply: f(x)
	fx := loc.Loc{File: "/app/index.js", Line: 2, Col: 32}
	inc := loc.Loc{File: "/app/index.js", Line: 3, Col: 1}
	if !g.HasEdge(fx, inc) {
		t.Errorf("f(x) must resolve to inc; targets: %v", g.Targets(fx))
	}
	// c() → bump
	cCall := loc.Loc{File: "/app/index.js", Line: 11, Col: 2}
	bump := loc.Loc{File: "/app/index.js", Line: 8, Col: 10}
	if !g.HasEdge(cCall, bump) {
		t.Errorf("c() must resolve to bump; targets: %v", g.Targets(cCall))
	}
	// obj.m()
	mCall := loc.Loc{File: "/app/index.js", Line: 16, Col: 6}
	method := loc.Loc{File: "/app/index.js", Line: 14, Col: 6}
	if !g.HasEdge(mCall, method) {
		t.Errorf("obj.m() must resolve to method; targets: %v", g.Targets(mCall))
	}
	// inst.getV() through the prototype chain
	getVCall := loc.Loc{File: "/app/index.js", Line: 21, Col: 10}
	getV := loc.Loc{File: "/app/index.js", Line: 19, Col: 23}
	if !g.HasEdge(getVCall, getV) {
		t.Errorf("inst.getV() must resolve through prototype; targets: %v", g.Targets(getVCall))
	}
}

func TestRequireLinking(t *testing.T) {
	project := &modules.Project{
		Name: "link",
		Files: map[string]string{
			"/app/index.js": `
var lib = require('./lib');
lib.hello();
var util = require('mylib');
util();
`,
			"/app/lib.js": `
exports.hello = function hello() { return "hi"; };
`,
			"/node_modules/mylib/index.js": `
module.exports = function main() { return 42; };
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	res, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	helloCall := loc.Loc{File: "/app/index.js", Line: 3, Col: 10}
	hello := loc.Loc{File: "/app/lib.js", Line: 2, Col: 17}
	if !g.HasEdge(helloCall, hello) {
		t.Errorf("lib.hello() unresolved; targets: %v", g.Targets(helloCall))
	}
	utilCall := loc.Loc{File: "/app/index.js", Line: 5, Col: 5}
	mainFn := loc.Loc{File: "/node_modules/mylib/index.js", Line: 2, Col: 18}
	if !g.HasEdge(utilCall, mainFn) {
		t.Errorf("util() unresolved; targets: %v", g.Targets(utilCall))
	}
	// require sites link to module functions.
	reqSite := loc.Loc{File: "/app/index.js", Line: 2, Col: 18}
	if !g.HasEdge(reqSite, callgraph.ModuleFunc("/app/lib.js")) {
		t.Errorf("require('./lib') should link to module function; targets: %v", g.Targets(reqSite))
	}
}

func TestCallbackEdgesThroughNatives(t *testing.T) {
	project := &modules.Project{
		Name: "callbacks",
		Files: map[string]string{
			"/app/index.js": `
var sink = null;
[1, 2, 3].forEach(function visit(x) { sink = x; });
setTimeout(function timer() {}, 100);
function target(a) { return a; }
target.apply(null, [5]);
target.call(null, 6);
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	res, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	cases := []struct {
		site, fn loc.Loc
		what     string
	}{
		{loc.Loc{File: "/app/index.js", Line: 3, Col: 18}, loc.Loc{File: "/app/index.js", Line: 3, Col: 19}, "forEach callback"},
		{loc.Loc{File: "/app/index.js", Line: 4, Col: 11}, loc.Loc{File: "/app/index.js", Line: 4, Col: 12}, "setTimeout callback"},
		{loc.Loc{File: "/app/index.js", Line: 6, Col: 13}, loc.Loc{File: "/app/index.js", Line: 5, Col: 1}, "apply"},
		{loc.Loc{File: "/app/index.js", Line: 7, Col: 12}, loc.Loc{File: "/app/index.js", Line: 5, Col: 1}, "call"},
	}
	for _, c := range cases {
		if !g.HasEdge(c.site, c.fn) {
			t.Errorf("%s: missing edge %v → %v; targets: %v", c.what, c.site, c.fn, g.Targets(c.site))
		}
	}
}

func TestDPRReadHints(t *testing.T) {
	// A dynamic property read that returns functions: baseline cannot
	// resolve the subsequent call; a read hint injects the callee.
	project := &modules.Project{
		Name: "dpr",
		Files: map[string]string{
			"/app/index.js": `
var handlers = {};
handlers["a"] = function ha() { return 1; };
var key = "a";
var h = handlers[key];
h();
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	hCall := loc.Loc{File: "/app/index.js", Line: 6, Col: 2}
	ha := loc.Loc{File: "/app/index.js", Line: 3, Col: 17}
	if base.Graph.HasEdge(hCall, ha) {
		t.Error("baseline should not resolve h()")
	}
	if !ext.Graph.HasEdge(hCall, ha) {
		t.Errorf("extended must resolve h() via hints; targets: %v", ext.Graph.Targets(hCall))
	}
	// With DPR disabled the edge must still come via DPW + nothing → check
	// it disappears when both the read path matters.
	noDPR, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints, DisableDPR: true})
	if err != nil {
		t.Fatal(err)
	}
	// The write hint handlers["a"]=ha exists, but reading handlers[key]
	// is a dynamic read; without [DPR] the only flow is via property "a"
	// of the handlers object — the read is computed, so no flow: edge gone.
	if noDPR.Graph.HasEdge(hCall, ha) {
		t.Error("with DPR disabled, the dynamic-read edge should disappear")
	}
}

// TestMiniRouterDPR asserts the rule on a corpus project: mini-router's
// dispatch is a computed read, so [DPR] is what resolves it.
func TestMiniRouterDPR(t *testing.T) {
	router := corpus.ByName("mini-router").Project
	ar, err := approx.Run(router, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(router, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	noDPR, err := Analyze(router, Options{Mode: WithHints, Hints: ar.Hints, DisableDPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Graph.NumEdges() <= noDPR.Graph.NumEdges() {
		t.Errorf("[DPR] should add dispatch edges: with=%d without=%d",
			full.Graph.NumEdges(), noDPR.Graph.NumEdges())
	}
}

func TestModuleHints(t *testing.T) {
	project := &modules.Project{
		Name: "dynmod",
		Files: map[string]string{
			"/app/index.js": `
var name = "plug" + "in";
var plugin = require("./" + name);
plugin();
`,
			"/app/plugin.js": `module.exports = function pluginMain() {};`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Hints.ModuleHints()) == 0 {
		t.Fatal("no module hints recorded")
	}
	base, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	pluginCall := loc.Loc{File: "/app/index.js", Line: 4, Col: 7}
	pluginMain := loc.Loc{File: "/app/plugin.js", Line: 1, Col: 18}
	if base.Graph.HasEdge(pluginCall, pluginMain) {
		t.Error("baseline should not resolve dynamically required plugin()")
	}
	if !ext.Graph.HasEdge(pluginCall, pluginMain) {
		t.Errorf("module hints must resolve plugin(); targets: %v", ext.Graph.Targets(pluginCall))
	}
}

func TestAblationLosesPrecision(t *testing.T) {
	// Three distinct objects receive three distinct functions through the
	// same dynamic write operation. Relational hints keep them separate;
	// the name-only strawman crosses them (paper §4's example).
	project := &modules.Project{
		Name: "ablation",
		Files: map[string]string{
			"/app/index.js": `
var o1 = {};
var o2 = {};
var o3 = {};
function f1() {}
function f2() {}
function f3() {}
var pairs = [
  [o1, "p1", f1],
  [o2, "p2", f2],
  [o3, "p3", f3]
];
pairs.forEach(function(entry) {
  entry[0][entry[1]] = entry[2];
});
o1.p1();
o2.p2();
o3.p3();
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Analyze(project, Options{Mode: AblationNameOnly, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	relM := rel.Metrics()
	ablM := abl.Metrics()
	if relM.MonomorphicPct <= ablM.MonomorphicPct {
		t.Errorf("relational hints should be more monomorphic: relational %.1f%%, ablation %.1f%%",
			relM.MonomorphicPct, ablM.MonomorphicPct)
	}
	// Relational: o1.p1() resolves exactly to f1.
	site := loc.Loc{File: "/app/index.js", Line: 16, Col: 6}
	if n := len(rel.Graph.Targets(site)); n != 1 {
		t.Errorf("relational o1.p1() should have exactly 1 target, got %v", rel.Graph.Targets(site))
	}
	if n := len(abl.Graph.Targets(site)); n <= 1 {
		t.Errorf("ablation o1.p1() should be polymorphic, got %v", abl.Graph.Targets(site))
	}
}

func TestHintsSerializationPreservesAnalysis(t *testing.T) {
	// Hints round-tripped through JSON must produce the identical graph
	// (the two phases can run as separate processes, as in the paper).
	project := motivating()
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ext1, err := Analyze(project, Options{Mode: WithHints, Hints: ar.Hints})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ar.Hints.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := hints.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ext2, err := Analyze(project, Options{Mode: WithHints, Hints: h2})
	if err != nil {
		t.Fatal(err)
	}
	if ext1.Graph.NumEdges() != ext2.Graph.NumEdges() {
		t.Errorf("edge counts differ after hint round-trip: %d vs %d",
			ext1.Graph.NumEdges(), ext2.Graph.NumEdges())
	}
}
