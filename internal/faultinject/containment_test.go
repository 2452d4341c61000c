package faultinject_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/callgraph"
	"repro/internal/dyncg"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/modules"
	"repro/internal/static"
)

// chaosProject builds the containment fixture: three independent entry
// modules (a, b, c) that share a library but exchange no objects with each
// other, so a fault injected into /app/b.js must leave the analysis results
// anchored in /app/a.js, /app/c.js, and /app/lib.js byte-identical to a
// fault-free run. Every module exercises all four injectable hook sites:
// a require, a computed property read, calls, and an eval.
func chaosProject() *modules.Project {
	lib := `var count = 0;
function tick() { count = count + 1; return count; }
function pick(m, k) { return m[k]; }
var table = { tick: tick, pick: pick };
module.exports = { tick: tick, pick: pick, table: table };
`
	entry := func(tag string) string {
		return strings.ReplaceAll(`var lib = require("./lib");
function make(n) { return { id: n, run: function () { return n; } }; }
function get(o, k) { return o[k]; }
var obj = make(1);
var f = get(obj, "run");
f();
lib.tick();
eval("var evTAG = 1;");
module.exports = { make: make, get: get };
`, "TAG", tag)
	}
	return &modules.Project{
		Name: "chaos",
		Files: map[string]string{
			"/app/a.js":   entry("A"),
			"/app/b.js":   entry("B"),
			"/app/c.js":   entry("C"),
			"/app/lib.js": lib,
		},
		MainEntries: []string{"/app/a.js", "/app/b.js", "/app/c.js"},
	}
}

// cleanFiles are the modules a fault in /app/b.js must not perturb.
var cleanFiles = []string{"/app/a.js", "/app/c.js", "/app/lib.js"}

// pipelineOut bundles one full approx → static run.
type pipelineOut struct {
	ar        *approx.Result
	base, ext *static.Result
}

// runStaticPipeline runs the pre-analysis and the incremental static
// analysis exactly as the experiment driver does, degrading the modules the
// pre-analysis attributed a fault to.
func runStaticPipeline(t *testing.T, p *modules.Project, aopts approx.Options) pipelineOut {
	t.Helper()
	ar, err := approx.Run(p, aopts)
	if err != nil {
		t.Fatalf("approx.Run: %v", err)
	}
	base, ext, err := static.AnalyzeBoth(p, static.Options{
		Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules(),
	})
	if err != nil {
		t.Fatalf("static.AnalyzeBoth: %v", err)
	}
	return pipelineOut{ar: ar, base: base, ext: ext}
}

// assertAttributed fails unless there is at least one fault and every fault
// names the target module.
func assertAttributed(t *testing.T, faults []fault.Record, module string) {
	t.Helper()
	if len(faults) == 0 {
		t.Fatal("no fault recorded for an injected fault")
	}
	for _, f := range faults {
		if f.Module != module {
			t.Errorf("fault %v attributed to %q, want %q", f, f.Module, module)
		}
	}
}

// assertCleanSlices fails if any clean file's call-graph slice differs
// between the faulted and the fault-free run.
func assertCleanSlices(t *testing.T, clean, faulted pipelineOut) {
	t.Helper()
	for _, f := range cleanFiles {
		if !sliceByFile(faulted.ext.Graph, f).Equal(sliceByFile(clean.ext.Graph, f)) {
			t.Errorf("extended call-graph slice of %s differs from the fault-free run", f)
		}
		if !sliceByFile(faulted.base.Graph, f).Equal(sliceByFile(clean.base.Graph, f)) {
			t.Errorf("baseline call-graph slice of %s differs from the fault-free run", f)
		}
	}
}

// sliceByFile returns the sub-graph of g anchored in one file: the call
// sites written in it (with their edges and enclosing functions) and the
// function definitions located in it. A fault in one module must leave
// every independent module's slice byte-identical.
func sliceByFile(g *callgraph.Graph, file string) *callgraph.Graph {
	s := callgraph.New()
	for site, encl := range g.Sites {
		if site.File == file {
			s.Sites[site] = encl
		}
	}
	for site, set := range g.Edges {
		if site.File != file {
			continue
		}
		cs := make(map[callgraph.FuncID]bool, len(set))
		for f := range set {
			cs[f] = true
		}
		s.Edges[site] = cs
	}
	for f := range g.Funcs {
		if f.File == file {
			s.Funcs[f] = true
		}
	}
	for site := range g.NativeResolved {
		if site.File == file {
			s.NativeResolved[site] = true
		}
	}
	return s
}

// hasKind reports whether any record has the given kind.
func hasKind(faults []fault.Record, kind fault.Kind) bool {
	for _, f := range faults {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// TestFaultContainment is the chaos matrix: for every fault kind × injection
// site, the full pipeline must complete, flag exactly the faulted module for
// degradation, and leave every other module's call graph byte-identical to a
// fault-free run of the same configuration.
func TestFaultContainment(t *testing.T) {
	project := chaosProject()
	clean := runStaticPipeline(t, project, approx.Options{})
	if len(clean.ar.Faults) != 0 || len(clean.ext.DegradedModules) != 0 {
		t.Fatalf("fault-free reference run reports faults: %v", clean.ar.Faults)
	}

	// Hook faults: a panic at the Nth observed event of each kind inside
	// the pre-analysis.
	for _, site := range faultinject.HookSites {
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("panic/%s/%d", site, n), func(t *testing.T) {
				inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: site, N: n})
				out := runStaticPipeline(t, project, approx.Options{WrapHooks: inj.Wrap})
				if !inj.Fired() {
					// Fewer than n such events exist: the injector must be
					// a no-op and the whole run identical.
					if len(out.ar.Faults) != 0 {
						t.Fatalf("unfired injector produced faults: %v", out.ar.Faults)
					}
					if !out.ext.Graph.Equal(clean.ext.Graph) {
						t.Error("unfired injector changed the extended call graph")
					}
					return
				}
				assertAttributed(t, out.ar.Faults, target)
				if !hasKind(out.ar.Faults, fault.KindPanic) {
					t.Errorf("faults %v lack a panic record", out.ar.Faults)
				}
				if got := out.ext.DegradedModules; len(got) != 1 || got[0] != target {
					t.Errorf("DegradedModules = %v, want [%s]", got, target)
				}
				assertCleanSlices(t, clean, out)
			})
		}
	}

	// A far-off N never fires: injection must be perfectly vacuous.
	t.Run("panic/vacuous", func(t *testing.T) {
		inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: faultinject.SiteCall, N: 100000})
		out := runStaticPipeline(t, project, approx.Options{WrapHooks: inj.Wrap})
		if inj.Fired() {
			t.Fatal("injector with unreachable N fired")
		}
		if !out.ext.Graph.Equal(clean.ext.Graph) || !out.base.Graph.Equal(clean.base.Graph) {
			t.Error("vacuous injection changed analysis results")
		}
	})

	// Source faults: the target module's source is corrupted, truncated, or
	// given an unbounded spin loop.
	for _, kind := range faultinject.SourceFaults {
		t.Run("source/"+string(kind), func(t *testing.T) {
			mutated, err := faultinject.ApplySource(project, target, kind)
			if err != nil {
				t.Fatal(err)
			}
			aopts := approx.Options{}
			wantKind := fault.KindParse
			ref := clean
			if kind == faultinject.SourceHang {
				// Disable the structural loop budget so only the
				// wall-clock deadline can contain the spin, and rebuild
				// the reference with the identical configuration.
				aopts = approx.Options{MaxLoopIters: 1 << 40, Deadline: 200 * time.Millisecond}
				wantKind = fault.KindDeadline
				ref = runStaticPipeline(t, project, aopts)
				if len(ref.ar.Faults) != 0 {
					t.Fatalf("hang reference run reports faults: %v", ref.ar.Faults)
				}
			}
			out := runStaticPipeline(t, mutated, aopts)
			assertAttributed(t, out.ar.Faults, target)
			if !hasKind(out.ar.Faults, wantKind) {
				t.Errorf("faults %v lack a %s record", out.ar.Faults, wantKind)
			}
			if got := out.ext.DegradedModules; len(got) != 1 || got[0] != target {
				t.Errorf("DegradedModules = %v, want [%s]", got, target)
			}
			assertCleanSlices(t, ref, out)
		})
	}
}

// TestFaultContainmentDynCG applies the same matrix of hook faults to the
// dynamic call-graph phase: a panic while executing entry b must not change
// the edges recorded for the other entries, and edges recorded in b before
// the fault are kept.
func TestFaultContainmentDynCG(t *testing.T) {
	project := chaosProject()
	cleanDyn, err := dyncg.Build(project, dyncg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanDyn.Faults) != 0 {
		t.Fatalf("fault-free dynamic run reports faults: %v", cleanDyn.Faults)
	}

	for _, site := range faultinject.HookSites {
		t.Run("panic/"+string(site), func(t *testing.T) {
			inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: site})
			dr, err := dyncg.Build(project, dyncg.Options{WrapHooks: inj.Wrap})
			if err != nil {
				t.Fatalf("dyncg.Build: %v", err)
			}
			if !inj.Fired() {
				t.Fatalf("site %s never occurred during dynamic execution", site)
			}
			assertAttributed(t, dr.Faults, target)
			if dr.EntriesFailed != 1 {
				t.Errorf("EntriesFailed = %d, want 1", dr.EntriesFailed)
			}
			for _, f := range cleanFiles {
				if !sliceByFile(dr.Graph, f).Equal(sliceByFile(cleanDyn.Graph, f)) {
					t.Errorf("dynamic call-graph slice of %s differs from the fault-free run", f)
				}
			}
		})
	}

	// Source hang in entry b, contained by the wall-clock deadline.
	t.Run("source/hang", func(t *testing.T) {
		mutated, err := faultinject.ApplySource(project, target, faultinject.SourceHang)
		if err != nil {
			t.Fatal(err)
		}
		opts := dyncg.Options{MaxLoopIters: 1 << 40, Deadline: 200 * time.Millisecond}
		ref, err := dyncg.Build(project, opts)
		if err != nil || len(ref.Faults) != 0 {
			t.Fatalf("hang reference dynamic run: err=%v faults=%v", err, ref.Faults)
		}
		dr, err := dyncg.Build(mutated, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertAttributed(t, dr.Faults, target)
		if !hasKind(dr.Faults, fault.KindDeadline) {
			t.Errorf("faults %v lack a deadline record", dr.Faults)
		}
		for _, f := range cleanFiles {
			if !sliceByFile(dr.Graph, f).Equal(sliceByFile(ref.Graph, f)) {
				t.Errorf("dynamic call-graph slice of %s differs from the fault-free run", f)
			}
		}
	})
}
