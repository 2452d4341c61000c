package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loc"
)

// TestFuzzSoundnessSmoke is the deterministic CI smoke run of the
// differential fuzzer: 1000 fixed seeds through the full pipeline. Any
// failure whose bucket is not covered by a committed open reproducer
// (testdata/fuzz/open) fails the test.
func TestFuzzSoundnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1000-seed differential run; skipped with -short")
	}
	known, err := KnownBuckets(openDir(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(Options{Seeds: 1000})
	for _, b := range rep.SortedBuckets() {
		f := rep.Representative[b]
		if known[b] {
			t.Logf("known-open bucket %s: %d failures (first: seed %d)", b, rep.Buckets[b], f.Seed)
			continue
		}
		t.Errorf("new divergence bucket %s: %d failures; first: %s", b, rep.Buckets[b], f)
	}
}

// TestRunDeterministic: two runs over the same seed range report identical
// failures regardless of worker interleaving.
func TestRunDeterministic(t *testing.T) {
	a := Run(Options{Seeds: 60, Workers: 4})
	b := Run(Options{Seeds: 60, Workers: 2})
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure count differs: %d vs %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i].String() != b.Failures[i].String() {
			t.Errorf("failure %d differs: %s vs %s", i, a.Failures[i], b.Failures[i])
		}
	}
}

// TestFixedReproducers: every reproducer under testdata/fuzz/fixed must
// now pass all oracles — these are the fuzzer-found bugs this repository
// has fixed, kept as regression tests.
func TestFixedReproducers(t *testing.T) {
	repros := loadDir(t, fixedDir(t))
	if len(repros) == 0 {
		t.Fatal("no fixed reproducers found; testdata/fuzz/fixed should not be empty")
	}
	for _, r := range repros {
		if f := CheckFiles(r.Files, r.Entries); f != nil {
			t.Errorf("fixed reproducer (seed %d, %s) fails again: %s", r.Seed, r.Bucket, f)
		}
	}
}

// TestOpenReproducers: every reproducer under testdata/fuzz/open must
// still fail with its recorded bucket. When one stops failing, the bug it
// tracks has been fixed — move it to testdata/fuzz/fixed and drop its note.
func TestOpenReproducers(t *testing.T) {
	for _, r := range loadDir(t, openDir(t)) {
		f := CheckFiles(r.Files, r.Entries)
		switch {
		case f == nil:
			t.Errorf("open reproducer (seed %d, %s) no longer fails: move it to testdata/fuzz/fixed", r.Seed, r.Bucket)
		case f.Bucket != r.Bucket:
			t.Errorf("open reproducer (seed %d) changed bucket: %s -> %s", r.Seed, r.Bucket, f.Bucket)
		default:
			t.Logf("tracking open bug (seed %d, %s): %s", r.Seed, r.Bucket, r.Note)
		}
	}
}

// TestMinimizeFiles exercises the delta debugger against a cheap synthetic
// predicate: the minimal input triggering "both markers present" must be
// found, and entry files must survive.
func TestMinimizeFiles(t *testing.T) {
	files := map[string]string{
		"/app/main.js": "var x = 1;\nMARK_A\nvar y = 2;\nvar z = 3;\n",
		"/app/m0.js":   "var p = 4;\nMARK_B\nvar q = 5;\n",
		"/app/m1.js":   "var irrelevant = 6;\n",
	}
	pred := func(fs map[string]string) *Failure {
		all := ""
		for _, src := range fs {
			all += src
		}
		if _, ok := fs["/app/main.js"]; !ok {
			return nil
		}
		if strings.Contains(all, "MARK_A") && strings.Contains(all, "MARK_B") {
			return &Failure{Kind: KindCrash, Bucket: "crash/test", Detail: "markers"}
		}
		return nil
	}
	min, last := MinimizeFiles(files, []string{"/app/main.js"}, pred, 0)
	if last == nil {
		t.Fatal("minimizer lost the failure")
	}
	if _, ok := min["/app/m1.js"]; ok {
		t.Error("irrelevant file survived minimization")
	}
	total := 0
	for _, src := range min {
		total += len(strings.Split(strings.TrimSpace(src), "\n"))
	}
	if total > 2 {
		t.Errorf("expected 2 surviving lines, got %d: %v", total, min)
	}
}

// TestMinimizeRealFailure: minimizing a self-contained synthetic unsound
// program (dynamic handler installed under a computed key never seen by a
// crippled pipeline) is exercised end-to-end through Minimize by reusing a
// fixed reproducer pre-minimized form — here we simply re-minimize the
// fixed reproducer's files under a synthetic predicate to check Minimize's
// bookkeeping fields.
func TestMinimizeBookkeeping(t *testing.T) {
	f := &Failure{
		Seed:    7,
		Kind:    KindCrash,
		Bucket:  "crash/test",
		Detail:  "x",
		Files:   map[string]string{"/app/main.js": "LINE1\nLINE2\n"},
		Entries: []string{"/app/main.js"},
	}
	// CheckFiles on this input returns round-trip/parse (LINE1 is a bare
	// ident — actually valid JS), so Minimize's predicate (same bucket)
	// cannot reproduce and must return the original failure, marked
	// minimized.
	out := Minimize(f, 10)
	if out.Seed != 7 || !out.Minimized {
		t.Errorf("minimize lost bookkeeping: seed %d minimized %v", out.Seed, out.Minimized)
	}
}

// TestReproRoundTrip: the reproducer file format survives a
// marshal/parse round trip.
func TestReproRoundTrip(t *testing.T) {
	r := &Repro{
		Kind:    KindUnsound,
		Bucket:  "unsound-edge/computed-call",
		Seed:    42,
		Detail:  "dynamic edge a -> b missing",
		Note:    "tracking note",
		Entries: []string{"/app/main.js"},
		Files: map[string]string{
			"/app/main.js": "var x = require(\"./m0\");\nx.go(1);\n",
			"/app/m0.js":   "exports.go = function(n) { return n; };\n",
		},
	}
	parsed, err := ParseRepro(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Kind != r.Kind || parsed.Bucket != r.Bucket || parsed.Seed != r.Seed ||
		parsed.Detail != r.Detail || parsed.Note != r.Note {
		t.Errorf("header round trip mismatch: %+v vs %+v", parsed, r)
	}
	if len(parsed.Entries) != 1 || parsed.Entries[0] != "/app/main.js" {
		t.Errorf("entries mismatch: %v", parsed.Entries)
	}
	for path, src := range r.Files {
		if got := strings.TrimRight(parsed.Files[path], "\n"); got != strings.TrimRight(src, "\n") {
			t.Errorf("%s mismatch:\n%q\nvs\n%q", path, got, src)
		}
	}
}

// TestWriteAndLoadRepros: WriteReproFile and LoadRepros agree on disk layout.
func TestWriteAndLoadRepros(t *testing.T) {
	dir := t.TempDir()
	f := &Failure{Seed: 9, Kind: KindCrash, Bucket: "crash/approx", Detail: "boom",
		Files:   map[string]string{"/app/main.js": "var x = 1;\n"},
		Entries: []string{"/app/main.js"}}
	path, err := WriteReproFile(dir, ReproFromFailure(f, "note"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "crash-approx-seed9.txt" {
		t.Errorf("unexpected repro file name %s", path)
	}
	repros, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || repros[0].Detail != "boom" || repros[0].Note != "note" {
		t.Errorf("load mismatch: %+v", repros)
	}
	known, err := KnownBuckets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !known["crash/approx"] {
		t.Error("known bucket set missing crash/approx")
	}
}

// TestClassifyEdge covers the root-cause classifier on representative
// call-site shapes.
func TestClassifyEdge(t *testing.T) {
	files := map[string]string{"/app/a.js": strings.Join([]string{
		`res = t12[k16](8);`,      // 1: computed
		`res = f1(1, 2);`,         // 2: direct
		`res = f1.call(null, 1);`, // 3: reflective
		`res = obj.go(1);`,        // 4: method
		`var i = new C5(3);`,      // 5: constructor
		`res = require("./m0");`,  // 6: (module target)
	}, "\n")}
	cases := []struct {
		line, col int
		module    bool
		want      string
	}{
		{1, 15, false, "computed-call"},
		{2, 9, false, "direct-call"},
		{3, 14, false, "reflective-call"},
		{4, 13, false, "method-call"},
		{5, 9, false, "constructor-call"},
		{6, 14, true, "module-edge"},
	}
	for _, c := range cases {
		site := loc.Loc{File: "/app/a.js", Line: c.line, Col: c.col}
		target := loc.Loc{File: "/app/a.js", Line: 1, Col: 1}
		if c.module {
			target.Line = 0
		}
		if got := ClassifyEdge(files, site, target); got != c.want {
			t.Errorf("line %d: got %s want %s", c.line, got, c.want)
		}
	}
}

// ---------------------------------------------------------------- helpers

func fixedDir(t *testing.T) string { return testdataDir(t, "fixed") }
func openDir(t *testing.T) string  { return testdataDir(t, "open") }

func testdataDir(t *testing.T, sub string) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "fuzz", sub)
}

func loadDir(t *testing.T, dir string) []*Repro {
	t.Helper()
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	repros, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	return repros
}
