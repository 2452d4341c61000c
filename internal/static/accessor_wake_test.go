package static

import (
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hints"
	"repro/internal/loc"
	"repro/internal/modules"
)

// Accessor reads are wired on demand (features.go): a read of a sleeping
// pseudo-property name waits until propVar creates the name's first
// variable. These tests pin that every producer wakes the reads queued
// before it, that a rollback window puts a woken name back to sleep, and
// that a project without producers never materializes one.

// accessorPhases are the points at which accessorWakeRow checks wake state.
var accessorPhases = []string{"generate", "inject", "solve"}

type accessorWakeRow struct {
	name  string
	files map[string]string
	hints func() *hints.Hints // nil: baseline
	// wakes maps each pseudo-property name the row's reads wait on to the
	// phase whose producer wakes it.
	wakes map[string]string
	// fns are the accessor functions; edges are exactly the call edges
	// into them, as "site -> function".
	fns   []loc.Loc
	edges []string
}

func appLoc(file string, line, col int) loc.Loc {
	return loc.Loc{File: "/app/" + file, Line: line, Col: col}
}

func TestAccessorWakeProducers(t *testing.T) {
	idx := func(line, col int) loc.Loc { return appLoc("index.js", line, col) }
	rows := []accessorWakeRow{{
		// a.js is generated before b.js, so its reads queue while the
		// names sleep and b.js's object literal wakes them.
		name: "object-literal accessors in a later module",
		files: map[string]string{
			"/app/a.js": "var o = require('./b');\nvar v = o.x;\no.x = 1;\nvar w = o[v];\no[v] = 2;\n",
			"/app/b.js": "module.exports = {\n  get x() { return 1; },\n  set x(v) {}\n};\n",
		},
		wakes: map[string]string{"$get$x": "generate", "$set$x": "generate", "$getsall": "generate", "$setsall": "generate"},
		fns:   []loc.Loc{appLoc("b.js", 2, 8), appLoc("b.js", 3, 8)},
		edges: []string{
			"/app/a.js:2:10 -> /app/b.js:2:8",
			"/app/a.js:3:5 -> /app/b.js:3:8",
			"/app/a.js:4:10 -> /app/b.js:2:8",
			"/app/a.js:5:6 -> /app/b.js:3:8",
		},
	}, {
		name: "defineProperty with a literal key",
		files: map[string]string{"/app/index.js": "var o = {};\nvar v = o.x;\no.y = 1;\n" +
			"Object.defineProperty(o, 'x', { get: function g() { return 1; } });\n" +
			"Object.defineProperty(o, 'y', { set: function s(v) {} });\n"},
		wakes: map[string]string{"$get$x": "solve", "$set$y": "solve"},
		fns:   []loc.Loc{idx(4, 38), idx(5, 38)},
		edges: []string{
			"/app/index.js:2:10 -> /app/index.js:4:38",
			"/app/index.js:3:5 -> /app/index.js:5:38",
		},
	}, {
		// The identity calls deliver Proxy late, so Reflect.ownKeys queues
		// its $keysany read before the Proxy behavior creates the traps.
		name: "Proxy traps",
		files: map[string]string{"/app/index.js": "function id(f) { return f; }\n" +
			"var P = id(id(id(Proxy)));\n" +
			"var d = Reflect.ownKeys(p);\nvar a = p.a;\np.b = 1;\nvar c = 'c' in p;\n" +
			"var p = new P({}, {\n" +
			"  get: function g(t, k, r) {},\n" +
			"  set: function s(t, k, v, r) {},\n" +
			"  has: function h(t, k) { return true; },\n" +
			"  ownKeys: function ok(t) { return []; }\n" +
			"});\n"},
		wakes: map[string]string{"$getany": "solve", "$setany": "solve", "$hasany": "solve", "$keysany": "solve"},
		fns:   []loc.Loc{idx(8, 8), idx(9, 8), idx(10, 8), idx(11, 12)},
		edges: []string{
			"/app/index.js:3:24 -> /app/index.js:11:12",
			"/app/index.js:4:10 -> /app/index.js:8:8",
			"/app/index.js:5:5 -> /app/index.js:9:8",
			"/app/index.js:6:13 -> /app/index.js:10:8",
		},
	}, {
		name:  "user property named $getany",
		files: map[string]string{"/app/index.js": "var o = {};\nvar a = o.z;\nvar k = 'z';\nvar b = o[k];\no.$getany = function trap() {};\n"},
		wakes: map[string]string{"$getany": "solve"},
		fns:   []loc.Loc{idx(5, 13)},
		edges: []string{
			"/app/index.js:2:10 -> /app/index.js:5:13",
			"/app/index.js:4:10 -> /app/index.js:5:13",
		},
	}, {
		name:  "[DPW] hint writing $get$x",
		files: map[string]string{"/app/index.js": "var o = {};\nvar v = o.x;\nvar g = function getter() { return 1; };\nvar k = 'p';\no[k] = g;\n"},
		hints: func() *hints.Hints {
			h := hints.New()
			h.AddWrite(idx(5, 6), idx(1, 9), "$get$x", idx(3, 9))
			return h
		},
		wakes: map[string]string{"$get$x": "inject"},
		fns:   []loc.Loc{idx(3, 9)},
		edges: []string{"/app/index.js:2:10 -> /app/index.js:3:9"},
	}}
	for _, row := range rows {
		for _, workers := range []int{1, 4} {
			t.Run(row.name, func(t *testing.T) { runAccessorWakeRow(t, row, workers) })
		}
	}
}

func runAccessorWakeRow(t *testing.T, row accessorWakeRow, workers int) {
	main := "/app/index.js"
	if _, ok := row.files["/app/a.js"]; ok {
		main = "/app/a.js"
	}
	project := &modules.Project{Name: "accessors", Files: row.files,
		MainEntries: []string{main}, MainPrefix: "/app"}
	opts := Options{Mode: Baseline, SolverWorkers: workers}
	if row.hints != nil {
		opts.Mode, opts.Hints = WithHints, row.hints()
	}
	a := newAnalyzer(project, opts)
	check := func(phase int) {
		t.Helper()
		for prop, wakePhase := range row.wakes {
			n, ok := accessorNameOf(prop)
			if !ok {
				t.Fatalf("%s is not an accessor name", prop)
			}
			w := a.accessors[n]
			want := phase >= slices.Index(accessorPhases, wakePhase)
			if got := w != nil && w.awake; got != want {
				t.Errorf("workers %d: %s awake after %s = %v, want %v",
					workers, prop, accessorPhases[phase], got, want)
			}
			if want && len(w.waiting) == 0 {
				t.Errorf("workers %d: %s woke with no waiting read", workers, prop)
			}
		}
	}
	if err := a.generate(); err != nil {
		t.Fatal(err)
	}
	check(0)
	a.injectHints()
	check(1)
	a.s.solve()
	check(2)

	var got []string
	for site, targets := range a.cg.Edges {
		for _, fn := range row.fns {
			if targets[fn] {
				got = append(got, site.String()+" -> "+fn.String())
			}
		}
	}
	slices.Sort(got)
	want := slices.Clone(row.edges)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("workers %d: accessor edges\n got %q\nwant %q", workers, got, want)
	}
}

// TestAccessorWakeRollback wakes $get$x by a [DPW] hint inside an open
// rollback window, in which a Reflect.get that only the window's [DPR]
// hint resolves also queues a read of $get$y. rollbackTo must put $get$x
// back to sleep and restore both waiting lists; a second delta over the
// rolled-back state finds the getter edge again, as the public
// AnalyzeBothAndAblation arms do.
func TestAccessorWakeRollback(t *testing.T) {
	idx := func(line, col int) loc.Loc { return appLoc("index.js", line, col) }
	project := &modules.Project{Name: "rollback", MainEntries: []string{"/app/index.js"}, MainPrefix: "/app",
		Files: map[string]string{"/app/index.js": "var o = {};\nvar v = o.x;\n" +
			"var g = function getter() { return 1; };\nvar k = 'p';\no[k] = g;\n" +
			"var box = { f: Reflect.get };\nvar tbl = {};\nvar x = tbl[k];\nvar y = x.f(o, 'y');\n"}}
	readSite, getter := idx(2, 10), idx(3, 9)
	h := hints.New()
	h.AddWrite(idx(5, 6), idx(1, 9), "$get$x", getter)
	h.AddRead(idx(8, 12), idx(6, 11))
	getX, getY := accName{accGet, "x"}, accName{accGet, "y"}

	a := newAnalyzer(project, Options{Mode: Baseline})
	if err := a.generate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.dynReads[idx(8, 12)]; !ok {
		t.Fatalf("no dynamic read at %v", idx(8, 12))
	}
	a.s.solve()
	waiting := func(n accName) []accessorRead {
		if w := a.accessors[n]; w != nil {
			return slices.Clone(w.waiting)
		}
		return nil
	}
	awake := func(n accName) bool { return a.accessors[n] != nil && a.accessors[n].awake }
	xBefore, yBefore := waiting(getX), waiting(getY)
	if awake(getX) || len(xBefore) == 0 || awake(getY) {
		t.Fatalf("baseline: $get$x awake %v with %d reads, $get$y awake %v",
			awake(getX), len(xBefore), awake(getY))
	}

	delta := func(arm string) {
		t.Helper()
		a.opts = Options{Mode: WithHints, Hints: h}
		a.injectHints()
		a.s.solve()
		if !awake(getX) || !a.cg.HasEdge(readSite, getter) {
			t.Fatalf("%s: $get$x awake %v, getter edge %v", arm, awake(getX), a.cg.HasEdge(readSite, getter))
		}
		if len(waiting(getY)) != len(yBefore)+1 {
			t.Fatalf("%s: $get$y has %d waiting reads, want %d", arm, len(waiting(getY)), len(yBefore)+1)
		}
	}
	rb := a.beginRollbackWindow(a.cg.Clone())
	delta("extended arm")
	a.rollbackTo(rb)
	if awake(getX) || awake(getY) {
		t.Fatalf("after rollback: $get$x awake %v, $get$y awake %v", awake(getX), awake(getY))
	}
	if !slices.Equal(waiting(getX), xBefore) || !slices.Equal(waiting(getY), yBefore) {
		t.Fatalf("after rollback: waiting lists %v, %v; want %v, %v",
			waiting(getX), waiting(getY), xBefore, yBefore)
	}
	if a.cg.HasEdge(readSite, getter) {
		t.Fatal("after rollback: getter edge survived")
	}
	delta("second arm")

	_, ext, abl, err := AnalyzeBothAndAblation(project, Options{Mode: WithHints, Hints: h})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Graph.HasEdge(readSite, getter) || !abl.Graph.HasEdge(readSite, getter) {
		t.Errorf("AnalyzeBothAndAblation: getter edge extended %v, ablation %v",
			ext.Graph.HasEdge(readSite, getter), abl.Graph.HasEdge(readSite, getter))
	}
}

// TestAccessorNoProducerCorpusProject solves a corpus project that defines
// no accessor and no Proxy: its accessor reads all wait, and the solve ends
// without a single accessor pseudo-property variable or load.
func TestAccessorNoProducerCorpusProject(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := newAnalyzer(corpus.Motivating(), Options{Mode: Baseline, SolverWorkers: workers})
		if err := a.generate(); err != nil {
			t.Fatal(err)
		}
		a.s.solve()
		reads := 0
		for n, w := range a.accessors {
			if w.awake {
				t.Errorf("workers %d: %s awake", workers, n)
			}
			reads += len(w.waiting)
		}
		if reads == 0 {
			t.Errorf("workers %d: no accessor read was requested", workers)
		}
		for k := range a.propVars {
			if _, ok := accessorNameOf(k.prop); ok {
				t.Errorf("workers %d: property variable %s of token %d", workers, k.prop, k.t)
			}
		}
		for k := range a.loadSeen {
			if _, ok := accessorNameOf(k.prop); ok {
				t.Errorf("workers %d: load of %s from token %d", workers, k.prop, k.t)
			}
		}
	}
}

// TestAccessorWakeProvenanceContext checks that a read woken mid-solve, by a
// defineProperty behavior running under its own native rule, journals its
// load under the accessor rule and site it was requested with.
func TestAccessorWakeProvenanceContext(t *testing.T) {
	project := &modules.Project{Name: "prov", MainEntries: []string{"/app/index.js"}, MainPrefix: "/app",
		Files: map[string]string{"/app/index.js": "var o = {};\nvar v = o.x;\n" +
			"Object.defineProperty(o, 'x', { get: function g() { return 1; } });\n"}}
	a := newAnalyzer(project, Options{Mode: Baseline, Provenance: true})
	if err := a.generate(); err != nil {
		t.Fatal(err)
	}
	a.s.solve()
	oTok, ok := a.siteToken[appLoc("index.js", 1, 9)]
	if !ok {
		t.Fatal("no token for o")
	}
	getters, ok := a.propVars[propKey{oTok, "$get$x"}]
	if !ok {
		t.Fatal("no $get$x variable")
	}
	want := provRecord{rule: RuleAccessor, site: appLoc("index.js", 2, 10), detail: "x"}
	n := 0
	for k, rec := range a.s.prov.edges {
		if k.from != getters {
			continue
		}
		n++
		if rec != want {
			t.Errorf("edge %v journaled as %v, want %v", k, rec, want)
		}
	}
	if n == 0 {
		t.Error("no journaled edge out of $get$x")
	}
}
