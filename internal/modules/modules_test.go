package modules

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/value"
)

func testProject() *Project {
	return &Project{
		Name: "t",
		Files: map[string]string{
			"/app/index.js":                  "var lib = require('mylib');\nvar rel = require('./util');\nmodule.exports = lib.x + rel.y;",
			"/app/util.js":                   "exports.y = 2;",
			"/app/sub/deep.js":               "module.exports = require('../util');",
			"/node_modules/mylib/index.js":   "exports.x = 1;",
			"/node_modules/single.js":        "module.exports = 'single';",
			"/node_modules/withmain/main.js": "module.exports = 'main';",
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
}

func TestResolve(t *testing.T) {
	p := testProject()
	cases := []struct {
		from, name, want string
	}{
		{"/app/index.js", "./util", "/app/util.js"},
		{"/app/index.js", "./util.js", "/app/util.js"},
		{"/app/sub/deep.js", "../util", "/app/util.js"},
		{"/app/index.js", "mylib", "/node_modules/mylib/index.js"},
		{"/app/index.js", "single", "/node_modules/single.js"},
		{"/app/index.js", "withmain", "/node_modules/withmain/main.js"},
		{"/app/index.js", "events", "node:events"},
		{"/app/index.js", "node:events", "node:events"},
		{"/app/index.js", "fs", "node:fs"},
	}
	for _, c := range cases {
		got, err := Resolve(p, c.from, c.name)
		if err != nil || got != c.want {
			t.Errorf("Resolve(%s, %s) = %q, %v; want %q", c.from, c.name, got, err, c.want)
		}
	}
	if _, err := Resolve(p, "/app/index.js", "./missing"); err == nil {
		t.Error("expected error for missing relative module")
	}
	if _, err := Resolve(p, "/app/index.js", "ghost-package"); err == nil {
		t.Error("expected error for missing package")
	}
}

func TestLoadAndCache(t *testing.T) {
	p := testProject()
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := v.(value.Number); !ok || n != 3 {
		t.Errorf("exports = %v, want 3", v)
	}
	// Loading again returns the cached value.
	v2, err := r.Load("/app/index.js")
	if err != nil || !value.StrictEquals(v, v2) {
		t.Error("cache miss on second load")
	}
}

func TestModuleExportsReassignment(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/a.js": "module.exports = function theFunc() { return 7; };",
			"/app/b.js": "var f = require('./a');\nmodule.exports = f();",
		},
	}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/b.js")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := v.(value.Number); !ok || n != 7 {
		t.Errorf("got %v", v)
	}
}

func TestCyclicRequire(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/a.js": "exports.name = 'a';\nvar b = require('./b');\nexports.partner = b.name;",
			"/app/b.js": "var a = require('./a');\nexports.name = 'b';\nexports.sawPartial = a.name;",
		},
	}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/a.js")
	if err != nil {
		t.Fatal(err)
	}
	obj := v.(*value.Object)
	if got := obj.GetOwn("partner"); got == nil || got.Value != value.Value(value.String("b")) {
		t.Errorf("partner = %+v", got)
	}
	// b observed a's partially initialized exports (Node semantics).
	bv, _ := r.Load("/app/b.js")
	bobj := bv.(*value.Object)
	if got := bobj.GetOwn("sawPartial"); got == nil || got.Value != value.Value(value.String("a")) {
		t.Errorf("sawPartial = %+v", got)
	}
}

func TestNodeBuiltinModules(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/index.js": `
var EventEmitter = require('events');
var path = require('path');
var util = require('util');
var e = new EventEmitter();
var got = null;
e.on('x', function(v) { got = v; });
e.emit('x', 42);
module.exports = {
  got: got,
  joined: path.join('/a', 'b', '../c'),
  fmt: util.format('%s=%d', 'n', 5),
  base: path.basename('/x/y.js', '.js'),
  ext: path.extname('/x/y.tar.gz')
};
`,
		},
	}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	obj := v.(*value.Object)
	check := func(key string, want value.Value) {
		t.Helper()
		p := obj.GetOwn(key)
		if p == nil || !value.StrictEquals(p.Value, want) {
			t.Errorf("%s = %+v, want %v", key, p, want)
		}
	}
	check("got", value.Number(42))
	check("joined", value.String("/a/c"))
	check("fmt", value.String("n=5"))
	check("base", value.String("y"))
	check("ext", value.String(".gz"))
}

func TestEventEmitterOnceAndRemove(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/index.js": `
var EventEmitter = require('events');
var e = new EventEmitter();
var count = 0;
function inc() { count++; }
e.once('t', inc);
e.emit('t');
e.emit('t');
var onceCount = count;
var e2 = new EventEmitter();
function h() { count = count + 10; }
e2.on('u', h);
e2.removeListener('u', h);
e2.emit('u');
module.exports = { onceCount: onceCount, final: count };
`,
		},
	}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	obj := v.(*value.Object)
	if p := obj.GetOwn("onceCount"); !value.StrictEquals(p.Value, value.Number(1)) {
		t.Errorf("once fired %v times", value.ToString(p.Value))
	}
	if p := obj.GetOwn("final"); !value.StrictEquals(p.Value, value.Number(1)) {
		t.Errorf("removed listener fired: %v", value.ToString(p.Value))
	}
}

func TestSandboxMocks(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/index.js": "var fs = require('fs');\nmodule.exports = fs;",
		},
	}
	it := interp.New(interp.Options{Approximate: true})
	r := NewRegistry(p, it)
	r.Sandbox = true
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := v.(*value.Object)
	if !ok || obj.Class != "Mock" {
		t.Errorf("sandboxed fs = %v (%T)", v, v)
	}
}

func TestProjectHelpers(t *testing.T) {
	p := testProject()
	if !p.IsMainModule("/app/index.js") {
		t.Error("app module misclassified")
	}
	if p.IsMainModule("/node_modules/mylib/index.js") {
		t.Error("dependency misclassified")
	}
	pkgs := p.Packages()
	if len(pkgs) != 4 { // <main>, mylib, single, withmain
		t.Errorf("packages = %v", pkgs)
	}
	if p.CodeSize() == 0 {
		t.Error("code size zero")
	}
	paths := p.SortedPaths()
	for i := 1; i < len(paths); i++ {
		if paths[i-1] >= paths[i] {
			t.Error("paths not sorted")
		}
	}
}

// writeDir materializes an in-memory project under root on disk, the
// inverse of LoadDir.
func writeDir(p *Project, root string) error {
	for path, src := range p.Files {
		rel := strings.TrimPrefix(path, "/app/")
		if strings.HasPrefix(path, "/node_modules/") {
			rel = strings.TrimPrefix(path, "/")
		}
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func TestLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := testProject()
	if err := writeDir(p, dir); err != nil {
		t.Fatal(err)
	}
	// Sanity: files landed where expected.
	if _, err := os.Stat(filepath.Join(dir, "index.js")); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Files) != len(p.Files) {
		t.Errorf("file count %d, want %d", len(loaded.Files), len(p.Files))
	}
	for path, src := range p.Files {
		if loaded.Files[path] != src {
			t.Errorf("%s differs after round-trip", path)
		}
	}
	if len(loaded.MainEntries) != 1 || loaded.MainEntries[0] != "/app/index.js" {
		t.Errorf("entries = %v", loaded.MainEntries)
	}
	// Run the loaded project.
	it := interp.New(interp.Options{})
	r := NewRegistry(loaded, it)
	for _, e := range loaded.MainEntries {
		if _, err := r.Load(e); err != nil {
			t.Fatalf("loading %s: %v", e, err)
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("expected error for missing dir")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil || !strings.Contains(err.Error(), "no .js files") {
		t.Errorf("err = %v", err)
	}
}

func TestRequireErrorIsCatchable(t *testing.T) {
	p := &Project{
		Files: map[string]string{
			"/app/index.js": `
var ok = "no";
try {
  require('./does-not-exist');
} catch (e) {
  ok = "caught";
}
module.exports = ok;
`,
		},
	}
	it := interp.New(interp.Options{})
	r := NewRegistry(p, it)
	v, err := r.Load("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if !value.StrictEquals(v, value.String("caught")) {
		t.Errorf("got %v", value.ToString(v))
	}
}
