package static

import (
	"testing"

	"repro/internal/hints"
	"repro/internal/modules"
)

func deltaProject() *modules.Project {
	return &modules.Project{
		Name: "delta",
		Files: map[string]string{
			"/app/index.js": "var lib = require('./lib');\nlib.go();\n",
			"/app/lib.js":   "exports.go = function go() { return 1; };\nexports.extra = function extra() { return 2; };\n",
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
}

func TestDeltaSessionNoopReuses(t *testing.T) {
	s := NewDeltaSession(deltaProject())
	opts := Options{Mode: WithHints, Hints: hints.New()}
	base1, ext1, reused, err := s.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first analysis reported reused")
	}
	base2, ext2, reused, err := s.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("unchanged re-analysis did not reuse")
	}
	if base2 != base1 || ext2 != ext1 {
		t.Error("reuse returned different Result values")
	}

	// A no-op Update (same content) must still reuse: the fingerprint is
	// content-derived, not event-derived.
	s.Update(map[string]string{"/app/index.js": s.Project().Files["/app/index.js"]}, nil)
	if _, _, reused, err = s.Analyze(opts); err != nil || !reused {
		t.Errorf("no-op update broke reuse: reused=%t err=%v", reused, err)
	}
}

func TestDeltaSessionEditMatchesScratch(t *testing.T) {
	s := NewDeltaSession(deltaProject())
	opts := Options{Mode: WithHints, Hints: hints.New()}
	_, extBefore, _, err := s.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}

	edited := "var lib = require('./lib');\nlib.go();\nlib.extra();\n"
	s.Update(map[string]string{"/app/index.js": edited}, nil)
	baseD, extD, reused, err := s.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("edited session reported reused")
	}
	if extD.Graph.Equal(extBefore.Graph) {
		t.Error("edit did not change the graph — lib.extra() call not analyzed")
	}

	scratch := deltaProject()
	scratch.Files["/app/index.js"] = edited
	baseS, extS, err := AnalyzeBoth(scratch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !baseD.Graph.Equal(baseS.Graph) || !extD.Graph.Equal(extS.Graph) {
		t.Error("delta re-analysis differs from from-scratch analysis of the same files")
	}
}

func TestDeltaSessionRemove(t *testing.T) {
	p := deltaProject()
	p.Files["/app/dead.js"] = "exports.unused = function unused() { return 0; };\n"
	s := NewDeltaSession(p)
	opts := Options{Mode: WithHints, Hints: hints.New()}
	if _, _, _, err := s.Analyze(opts); err != nil {
		t.Fatal(err)
	}
	s.Update(nil, []string{"/app/dead.js"})
	_, extD, reused, err := s.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("removal reported reused")
	}
	_, extS, err := AnalyzeBoth(deltaProject(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !extD.Graph.Equal(extS.Graph) {
		t.Error("post-removal graph differs from a project never containing the file")
	}
}

// TestDeltaSessionOptionsInvalidate: a changed analysis option is an input
// change — the memoized fixpoint must not be served for different options.
func TestDeltaSessionOptionsInvalidate(t *testing.T) {
	s := NewDeltaSession(deltaProject())
	if _, _, _, err := s.Analyze(Options{Mode: WithHints, Hints: hints.New()}); err != nil {
		t.Fatal(err)
	}
	_, ext, reused, err := s.Analyze(Options{Mode: WithHints, Hints: hints.New(), Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("changed options served the memoized fixpoint")
	}
	if ext.Provenance == nil {
		t.Error("Provenance requested but the result carries none")
	}
	// SolverWorkers is excluded by design: the epoch engine is
	// graph-identical at every worker count, so switching engines reuses.
	if _, _, reused, err = s.Analyze(Options{Mode: WithHints, Hints: hints.New(), Provenance: true, SolverWorkers: 2}); err != nil || !reused {
		t.Errorf("SolverWorkers change broke reuse: reused=%t err=%v", reused, err)
	}
}

func TestDeltaSessionDirtyCount(t *testing.T) {
	s := NewDeltaSession(deltaProject())
	opts := Options{Mode: WithHints, Hints: hints.New()}
	if _, _, _, err := s.Analyze(opts); err != nil {
		t.Fatal(err)
	}
	s.Update(map[string]string{"/app/index.js": "var lib = require('./lib');\n"}, nil)
	if dirty := s.dirtyCount(); dirty != 1 {
		t.Errorf("one-file edit dirtied %d modules, want 1", dirty)
	}
	if _, _, _, err := s.Analyze(opts); err != nil {
		t.Fatal(err)
	}
	s.Update(map[string]string{"/app/new.js": "1;"}, []string{"/app/lib.js"})
	if dirty := s.dirtyCount(); dirty != 2 {
		t.Errorf("add+remove dirtied %d modules, want 2", dirty)
	}
}
