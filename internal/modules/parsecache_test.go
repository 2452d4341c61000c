package modules

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/interp"
)

func cacheProject() *Project {
	return &Project{
		Name: "cache-test",
		Files: map[string]string{
			"/app/index.js": "exports.a = function a() { return 1; };",
			"/app/util.js":  "exports.b = function b() { return 2; };",
		},
		MainEntries: []string{"/app/index.js"},
	}
}

func TestProjectParseCaching(t *testing.T) {
	p := cacheProject()
	p1, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeat Parse returned a different *ast.Program")
	}
	parses, hits := p.ParseCounts()
	if parses != 1 || hits != 1 {
		t.Errorf("parses=%d hits=%d, want 1/1", parses, hits)
	}
}

func TestProjectParseNodeLib(t *testing.T) {
	p := cacheProject()
	if _, err := p.Parse("node:events"); err != nil {
		t.Fatalf("node: lib module should parse via the cache: %v", err)
	}
	if _, err := p.Parse("/no/such.js"); !errors.Is(err, ErrNoSource) {
		t.Errorf("missing file: got %v, want ErrNoSource", err)
	}
}

// TestProjectParseConcurrent hammers one project's cache from many
// goroutines; under -race this validates the concurrent-reader guarantee,
// and the counters validate exactly-once parsing.
func TestProjectParseConcurrent(t *testing.T) {
	p := cacheProject()
	paths := []string{"/app/index.js", "/app/util.js", "node:events", "node:path"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				path := paths[(g+i)%len(paths)]
				if _, err := p.Parse(path); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	parses, hits := p.ParseCounts()
	if parses != int64(len(paths)) {
		t.Errorf("parses = %d, want exactly %d (one per file)", parses, len(paths))
	}
	if parses+hits != 16*50 {
		t.Errorf("parses+hits = %d, want %d", parses+hits, 16*50)
	}
}

// TestRegistryUsesSharedCache checks that module execution parses through
// the project cache rather than a private one.
func TestRegistryUsesSharedCache(t *testing.T) {
	p := cacheProject()
	// Pre-parse, then load through a registry: no new parse of index.js.
	if _, err := p.Parse("/app/index.js"); err != nil {
		t.Fatal(err)
	}
	parsesBefore, _ := p.ParseCounts()
	r := NewRegistry(p, interp.New(interp.Options{}))
	if _, err := r.Load("/app/index.js"); err != nil {
		t.Fatal(err)
	}
	parsesAfter, hits := p.ParseCounts()
	if parsesAfter != parsesBefore {
		t.Errorf("registry re-parsed: %d → %d", parsesBefore, parsesAfter)
	}
	if hits == 0 {
		t.Error("registry load did not hit the shared cache")
	}
}

// TestParseCacheContentKeyed is the stale-parse regression test: a cached
// parse is served only while its file's source is unchanged, so an
// in-session edit must re-parse and serve the new AST. The cache keeps one
// version per path, so reverting the edit parses the original again.
func TestParseCacheContentKeyed(t *testing.T) {
	p := cacheProject()
	original := p.Files["/app/index.js"]
	before, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}

	p.Files["/app/index.js"] = original + "\nexports.c = function c() { return 3; };"
	after, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("edited file served the stale pre-edit AST")
	}
	if len(after.Body) == len(before.Body) {
		t.Error("re-parse did not see the appended statement")
	}
	parses, _ := p.ParseCounts()
	if parses != 2 {
		t.Errorf("parses = %d after one edit, want 2", parses)
	}

	p.Files["/app/index.js"] = original
	reverted, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if reverted == after || len(reverted.Body) != len(before.Body) {
		t.Error("reverted file did not get a parse of the original source")
	}
	if parses, _ := p.ParseCounts(); parses != 3 {
		t.Errorf("parses = %d after revert, want 3", parses)
	}
}

// TestPruneParses is the memory-bound regression test for long-lived
// sessions: PruneParses evicts the parses of removed files and of files
// whose source changed since they were parsed — current file versions and
// built-in node: modules stay cached.
func TestPruneParses(t *testing.T) {
	p := cacheProject()
	for _, path := range []string{"node:events", "/app/index.js", "/app/util.js"} {
		if _, err := p.Parse(path); err != nil {
			t.Fatal(err)
		}
	}
	// Parse ten successive versions of index.js: each replaces the last.
	original := p.Files["/app/index.js"]
	for i := 0; i < 10; i++ {
		p.Files["/app/index.js"] = fmt.Sprintf("%s\nvar v%d = %d;", original, i, i)
		if _, err := p.Parse("/app/index.js"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(p.parseCache.entries); n != 3 {
		t.Fatalf("cache holds %d ASTs before prune, want 3 (one per path)", n)
	}

	// An edit not yet parsed leaves a stale entry; a removed file leaves an
	// orphaned one.
	p.Files["/app/index.js"] += "\nvar last = 1;"
	delete(p.Files, "/app/util.js")
	p.PruneParses()
	if n := len(p.parseCache.entries); n != 1 {
		t.Errorf("cache holds %d ASTs after prune, want 1 (node:events)", n)
	}

	// The survivor is the right one: re-parsing the builtin is a pure cache
	// hit, and the edited file parses its current version.
	parsesBefore, _ := p.ParseCounts()
	if _, err := p.Parse("node:events"); err != nil {
		t.Fatal(err)
	}
	if parsesAfter, _ := p.ParseCounts(); parsesAfter != parsesBefore {
		t.Errorf("prune evicted a live parse: %d → %d parses", parsesBefore, parsesAfter)
	}
	prog, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Body) != 3 {
		t.Errorf("index.js parsed to %d statements, want 3 (the current version)", len(prog.Body))
	}
	if _, err := p.Parse("/app/util.js"); !errors.Is(err, ErrNoSource) {
		t.Errorf("removed file: got %v, want ErrNoSource", err)
	}
	p.PruneParses()
	if n := len(p.parseCache.entries); n != 2 {
		t.Errorf("cache holds %d ASTs after the second prune, want 2 (current index.js + node:events)", n)
	}
}
