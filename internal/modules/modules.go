// Package modules implements the CommonJS module system over in-memory
// projects: require() resolution (relative paths, node_modules packages,
// Node.js built-in modules), module caching, and the module/exports/
// require/__filename/__dirname bindings.
package modules

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/perf"
	"repro/internal/value"
)

// Project is an in-memory JavaScript project: a virtual file system of
// module sources plus package metadata. It substitutes for the npm/GitHub
// checkouts of the paper's corpus.
type Project struct {
	// Name identifies the project in reports.
	Name string
	// Files maps absolute virtual paths ("/app/index.js",
	// "/node_modules/express/lib/application.js") to source text.
	Files map[string]string
	// MainEntries are the entry module paths of the main package; static
	// reachability and approximate interpretation start here.
	MainEntries []string
	// TestEntries are test-suite entry modules used to produce dynamic
	// call graphs (the paper's NodeProf-under-test-suite setup).
	TestEntries []string
	// MainPrefix is the path prefix of the main package (everything
	// outside it counts as dependency code). Defaults to "/" minus
	// node_modules.
	MainPrefix string

	// Shared per-file cache: every pipeline phase (approximate
	// interpretation, static analysis, corpus statistics, vulnerability
	// selection, dynamic call graphs) parses through it, so each file is
	// parsed exactly once per project, and Fingerprint hashes each file
	// version once. Lazily created; see Parse and Fingerprint.
	parseOnce  sync.Once
	parseCache *parseCache
}

// ErrNoSource reports a path with neither a project file nor a built-in
// node: module behind it.
var ErrNoSource = errors.New("modules: no such file")

// parseCache holds one entry per path of a project: the file's parse, its
// SHA-256 digest, or both. Each entry keeps the source they were computed
// from, and an entry is valid only while that source is still the file's
// current one, so an in-session edit re-parses and re-hashes instead of
// serving a stale AST or digest. An unchanged file costs one string
// comparison, which returns early when both strings share their data. The
// mutex is held across parsing and hashing, which both serializes
// concurrent users of the same project (the corpus driver parallelizes
// across projects, not within one) and guarantees each file version is
// parsed and hashed at most once.
type parseCache struct {
	mu      sync.Mutex
	entries map[string]fileEntry
	// paths is the sorted path list of the file set Fingerprint last
	// sorted; it is reused while the file set is the same.
	paths []string

	parses, hits int64
}

// fileEntry is one file version's memoized parse and digest. An entry made
// by Fingerprint has no parse yet (prog is nil); one made by Parse has no
// digest yet (hashed is false).
type fileEntry struct {
	src    string
	prog   *ast.Program
	sum    [sha256.Size]byte
	hashed bool
}

// sortPaths records and returns the sorted paths of files. Callers hold
// c.mu.
func (c *parseCache) sortPaths(files map[string]string) []string {
	c.paths = make([]string, 0, len(files))
	for path := range files {
		c.paths = append(c.paths, path)
	}
	slices.Sort(c.paths)
	return c.paths
}

// cache returns the project's parse cache, creating it on first use.
func (p *Project) cache() *parseCache {
	p.parseOnce.Do(func() { p.parseCache = &parseCache{entries: map[string]fileEntry{}} })
	return p.parseCache
}

// entry returns path's entry if it was computed from src, else an empty
// entry for src. Callers hold c.mu.
func (c *parseCache) entry(path, src string) fileEntry {
	if e, ok := c.entries[path]; ok && e.src == src {
		return e
	}
	return fileEntry{src: src}
}

// source returns the source text of path: a project file or a built-in
// node: module.
func (p *Project) source(path string) (string, bool) {
	if src, ok := p.Files[path]; ok {
		return src, true
	}
	src, ok := nodeLibSources[path]
	return src, ok
}

// Parse returns the parsed program for path — a project file or a built-in
// node: module — parsing each file version at most once per project. It is
// safe for concurrent use. Paths with no source return ErrNoSource.
func (p *Project) Parse(path string) (*ast.Program, error) {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := p.source(path)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSource, path)
	}
	e := c.entry(path, src)
	if e.prog != nil {
		c.hits++
		perf.Global().AddParseHit()
		return e.prog, nil
	}
	start := time.Now()
	prog, err := parser.Parse(path, src)
	if err != nil {
		return nil, err
	}
	c.parses++
	perf.Global().AddParse(time.Since(start))
	e.prog = prog
	c.entries[path] = e
	return prog, nil
}

// Fingerprint hashes everything the analysis pipeline reads from the
// project: its name (reports embed it), entry configuration, and the file
// set. Each string is length-framed and each list is prefixed by its
// element count, so list boundaries cannot alias (MainEntries=["x"] with
// empty TestEntries hashes differently from the reverse). The file set is
// hashed as sorted (path, SHA-256 of content) pairs, and each file
// version's digest is computed once and kept in the per-file cache, so
// re-fingerprinting an unchanged project hashes only its paths. Two
// projects with equal fingerprints are indistinguishable to every pipeline
// phase. The result is lowercase hex. Fingerprint performs no parse and is
// safe for concurrent use with Parse; p.Files must not be concurrently
// mutated.
func (p *Project) Fingerprint() string {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	paths := c.paths
	if len(paths) != len(p.Files) {
		paths = c.sortPaths(p.Files)
	}
	size := 5*8 + len(p.Name) + len(p.MainPrefix)
	for _, e := range p.MainEntries {
		size += 8 + len(e)
	}
	for _, e := range p.TestEntries {
		size += 8 + len(e)
	}
	for _, path := range paths {
		size += 8 + len(path) + sha256.Size
	}

	buf := make([]byte, 0, size)
	str := func(s string) {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	count := func(n int) { buf = binary.BigEndian.AppendUint64(buf, uint64(n)) }
	str(p.Name)
	str(p.MainPrefix)
	count(len(p.MainEntries))
	for _, e := range p.MainEntries {
		str(e)
	}
	count(len(p.TestEntries))
	for _, e := range p.TestEntries {
		str(e)
	}
	count(len(paths))
	fileSection := len(buf)
	for i := 0; i < len(paths); i++ {
		path := paths[i]
		src, ok := p.Files[path]
		if !ok {
			// The file set has the old size but not the old paths: sort
			// the current set and hash it from its start.
			paths, buf, i = c.sortPaths(p.Files), buf[:fileSection], -1
			continue
		}
		e := c.entry(path, src)
		if !e.hashed {
			// Hash the string's bytes in place: the digest only reads them.
			e.sum = sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
			e.hashed = true
			c.entries[path] = e
		}
		str(path)
		buf = append(buf, e.sum[:]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// PruneParses evicts cached parses and digests whose path is gone from the
// project or whose source is no longer the path's current one, so a
// long-lived session's cache stays bounded by its current file set (plus
// the built-in node: modules, which stay resident). The caller must ensure
// p.Files is not concurrently mutated (delta sessions call this under their
// session lock).
func (p *Project) PruneParses() {
	c := p.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, e := range c.entries {
		if src, ok := p.source(path); !ok || src != e.src {
			delete(c.entries, path)
		}
	}
}

// SortedPaths returns all file paths in deterministic order.
func (p *Project) SortedPaths() []string {
	paths := make([]string, 0, len(p.Files))
	for f := range p.Files {
		paths = append(paths, f)
	}
	sort.Strings(paths)
	return paths
}

// IsMainModule reports whether path belongs to the main package (not a
// dependency under node_modules).
func (p *Project) IsMainModule(path string) bool {
	if strings.Contains(path, "/node_modules/") || strings.HasPrefix(path, "node:") {
		return false
	}
	if p.MainPrefix != "" {
		return strings.HasPrefix(path, p.MainPrefix)
	}
	return true
}

// Packages returns the distinct package roots in the project: the main
// package plus each node_modules/<name> directory.
func (p *Project) Packages() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	add("<main>")
	for path := range p.Files {
		if i := strings.Index(path, "/node_modules/"); i >= 0 {
			rest := path[i+len("/node_modules/"):]
			if j := strings.Index(rest, "/"); j >= 0 {
				add(rest[:j])
			} else {
				add(strings.TrimSuffix(rest, ".js"))
			}
		}
	}
	sort.Strings(out)
	return out
}

// CodeSize returns the total source size in bytes.
func (p *Project) CodeSize() int {
	total := 0
	for _, src := range p.Files {
		total += len(src)
	}
	return total
}

// nodeBuiltins is the set of Node.js modules implemented by this runtime.
// Pure modules are written in JavaScript (see nodelib.go) so that their
// functions participate in analysis like any dependency code; external
// modules touch the outside world and are sandbox-mocked during
// approximate interpretation, per the paper.
var externalModules = map[string]bool{
	"fs": true, "net": true, "http": true, "https": true, "child_process": true,
	"os": true, "dgram": true, "tls": true, "cluster": true, "dns": true,
	"readline": true, "zlib": true, "crypto": true,
}

// Registry loads and caches modules for one interpreter instance.
type Registry struct {
	Project *Project
	Interp  *interp.Interp

	// Sandbox replaces external Node modules with mocks (approximate mode).
	Sandbox bool

	cache    map[string]value.Value // module path → exports
	inFlight map[string]*value.Object
}

// NewRegistry wires a project to an interpreter and installs itself as the
// interpreter's ModuleHost.
func NewRegistry(project *Project, it *interp.Interp) *Registry {
	r := &Registry{
		Project:  project,
		Interp:   it,
		cache:    map[string]value.Value{},
		inFlight: map[string]*value.Object{},
	}
	it.ModuleHost = r
	return r
}

func (r *Registry) parse(path string) (*ast.Program, error) {
	return r.Project.Parse(path)
}

// Require implements interp.ModuleHost.
func (r *Registry) Require(from, name string) (value.Value, error) {
	path, err := r.Resolve(from, name)
	if err != nil {
		return nil, r.Interp.ThrowError("Error", err.Error())
	}
	return r.Load(path)
}

// Resolve maps a require() specifier to a module path, following the
// CommonJS rules for relative paths and node_modules lookups.
func (r *Registry) Resolve(from, name string) (string, error) {
	return Resolve(r.Project, from, name)
}

// Resolve is the pure module-resolution function behind Registry.Resolve;
// the static analysis uses it directly (no interpreter required).
func Resolve(p *Project, from, name string) (string, error) {
	name = strings.TrimPrefix(name, "node:")
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "../") || strings.HasPrefix(name, "/") {
		base := dirOf(from)
		cand := normalize(joinPath(base, name))
		for _, c := range []string{cand, cand + ".js", cand + "/index.js"} {
			if _, ok := p.Files[c]; ok {
				return c, nil
			}
		}
		return "", fmt.Errorf("cannot find module '%s' from %s", name, from)
	}
	// Built-in Node modules.
	if externalModules[name] {
		return "node:" + name, nil
	}
	if _, ok := nodeLibSources["node:"+name]; ok {
		return "node:" + name, nil
	}
	// node_modules lookup (flat layout).
	for _, c := range []string{
		"/node_modules/" + name + "/index.js",
		"/node_modules/" + name + ".js",
		"/node_modules/" + name,
	} {
		if _, ok := p.Files[c]; ok {
			return c, nil
		}
	}
	// main field convention: /node_modules/<name>/main.js
	if _, ok := p.Files["/node_modules/"+name+"/main.js"]; ok {
		return "/node_modules/" + name + "/main.js", nil
	}
	return "", fmt.Errorf("cannot find module '%s' from %s", name, from)
}

// Load executes (or returns the cached exports of) the module at path.
func (r *Registry) Load(path string) (value.Value, error) {
	if v, ok := r.cache[path]; ok {
		return v, nil
	}
	// Cyclic requires observe the partially initialized exports object, as
	// in Node.
	if exports, ok := r.inFlight[path]; ok {
		return exports, nil
	}

	// External modules: mocked under sandbox, minimal JS implementations
	// otherwise.
	if strings.HasPrefix(path, "node:") {
		name := strings.TrimPrefix(path, "node:")
		if externalModules[name] {
			if r.Sandbox {
				mock := r.Interp.NewMockModule()
				r.cache[path] = mock
				return mock, nil
			}
			// Concrete mode uses the same JS stubs (no real I/O exists in
			// this environment either way).
		}
		if _, ok := nodeLibSources[path]; !ok {
			return nil, r.Interp.ThrowError("Error", "unsupported built-in module "+path)
		}
	}

	prog, err := r.parse(path)
	if err != nil {
		return nil, r.Interp.ThrowError("SyntaxError", err.Error())
	}

	it := r.Interp
	exports := it.NewPlainObject()
	module := it.NewPlainObject()
	module.Set("exports", exports)
	module.Set("id", value.String(path))
	r.inFlight[path] = exports
	// Deferred so a panic unwinding out of module code (contained further up
	// by the per-item recovery in approx/dyncg) does not leave the module
	// permanently "in flight", which would hand its half-initialized exports
	// to every later require.
	defer delete(r.inFlight, path)

	scope := value.NewScope(it.GlobalScope())
	scope.Declare("module", module)
	scope.Declare("exports", exports)
	scope.Declare("__filename", value.String(path))
	scope.Declare("__dirname", value.String(dirOf(path)))
	scope.Declare("require", r.makeRequire(path))

	_, err = it.RunProgram(prog, scope, exports)
	if err != nil {
		return nil, err
	}
	// module.exports may have been reassigned.
	var result value.Value = exports
	if p := module.GetOwn("exports"); p != nil && !p.IsAccessor() {
		result = p.Value
	}
	r.cache[path] = result
	return result, nil
}

// LoadedPaths returns every module path whose top-level code this registry
// has executed to completion (entries and transitive requires alike), in
// sorted order.
func (r *Registry) LoadedPaths() []string {
	out := make([]string, 0, len(r.cache))
	for p := range r.cache {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) makeRequire(from string) *value.Object {
	req := r.Interp.NewNativeFunction("require", func(h value.Host, this value.Value, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return nil, r.Interp.ThrowError("TypeError", "require expects a module name")
		}
		name := value.ToString(args[0])
		return r.Require(from, name)
	})
	return req
}

// ----------------------------------------------------------------- path ops

func dirOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

func joinPath(base, rel string) string {
	if strings.HasPrefix(rel, "/") {
		return rel
	}
	return base + "/" + rel
}

func normalize(path string) string {
	parts := strings.Split(path, "/")
	var out []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return "/" + strings.Join(out, "/")
}
