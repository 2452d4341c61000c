package modules

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceFingerprint recomputes Fingerprint's framing from scratch with
// no memo: length-framed name and prefix, count-prefixed entry lists, then
// the count-prefixed sorted (path, SHA-256 of content) pairs.
func referenceFingerprint(p *Project) string {
	h := sha256.New()
	num := func(n int) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	str(p.Name)
	str(p.MainPrefix)
	num(len(p.MainEntries))
	for _, e := range p.MainEntries {
		str(e)
	}
	num(len(p.TestEntries))
	for _, e := range p.TestEntries {
		str(e)
	}
	var paths []string
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	num(len(paths))
	for _, path := range paths {
		str(path)
		sum := sha256.Sum256([]byte(p.Files[path]))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// freshCopy builds a new project with the same content and an empty memo.
func freshCopy(p *Project) *Project {
	files := map[string]string{}
	for path, src := range p.Files {
		files[path] = strings.Clone(src)
	}
	return &Project{
		Name:        p.Name,
		Files:       files,
		MainEntries: append([]string(nil), p.MainEntries...),
		TestEntries: append([]string(nil), p.TestEntries...),
		MainPrefix:  p.MainPrefix,
	}
}

// TestFingerprintTracksMutations mutates one project in place between
// fingerprints. After every mutation the memoized fingerprint must equal
// both an independent hash of the same framing and the fingerprint of a
// freshly built project with the same content.
func TestFingerprintTracksMutations(t *testing.T) {
	p := cacheProject()
	p.TestEntries = []string{"/app/util.js"}
	original := p.Files["/app/index.js"]
	check := func(step string) string {
		t.Helper()
		got := p.Fingerprint()
		if want := referenceFingerprint(p); got != want {
			t.Errorf("%s: memoized fingerprint %s, reference %s", step, got, want)
		}
		if fresh := freshCopy(p).Fingerprint(); got != fresh {
			t.Errorf("%s: memoized fingerprint %s, fresh project %s", step, got, fresh)
		}
		return got
	}

	base := check("initial")
	if again := check("unchanged"); again != base {
		t.Error("re-fingerprinting an unchanged project changed the result")
	}
	p.Files["/app/index.js"] = original + "\nvar edited = 1;"
	if check("in-place edit") == base {
		t.Error("an edit did not change the fingerprint")
	}
	p.Files["/app/extra.js"] = "exports.c = 3;"
	check("added file")
	delete(p.Files, "/app/util.js")
	check("removed file")
	p.Files["/app/moved.js"] = p.Files["/app/extra.js"]
	delete(p.Files, "/app/extra.js")
	check("renamed file")
	p.Files["/app/util.js"] = cacheProject().Files["/app/util.js"]
	delete(p.Files, "/app/moved.js")
	p.Files["/app/index.js"] = original
	if check("revert") != base {
		t.Error("reverting every mutation did not restore the original fingerprint")
	}
	p.Files["/app/index.js"] = strings.Clone(original)
	if check("equal content, different string") != base {
		t.Error("equal content held in a different string changed the fingerprint")
	}
}

// TestFingerprintDoesNotParse: a fingerprint leaves the parse counters
// alone, and an entry that holds only a digest is a parse miss.
func TestFingerprintDoesNotParse(t *testing.T) {
	p := cacheProject()
	fp := p.Fingerprint()
	if parses, hits := parseCounts(p); parses != 0 || hits != 0 {
		t.Fatalf("fingerprint changed the parse counts to %d/%d", parses, hits)
	}
	prog, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil {
		t.Fatal("digest-only entry served a nil parse")
	}
	if parses, hits := parseCounts(p); parses != 1 || hits != 0 {
		t.Errorf("parse after fingerprint: parses=%d hits=%d, want 1/0", parses, hits)
	}
	if p.Fingerprint() != fp {
		t.Error("a parse changed the fingerprint")
	}
	again, err := p.Parse("/app/index.js")
	if err != nil {
		t.Fatal(err)
	}
	if again != prog {
		t.Error("a fingerprint evicted the parse it shares an entry with")
	}
	if parses, hits := parseCounts(p); parses != 1 || hits != 1 {
		t.Errorf("repeat parse: parses=%d hits=%d, want 1/1", parses, hits)
	}
}

// TestPruneParsesDropsDigests: entries that hold only a digest follow the
// same validity rule as parses.
func TestPruneParsesDropsDigests(t *testing.T) {
	p := cacheProject()
	p.Fingerprint()
	if n := len(p.parseCache.entries); n != 2 {
		t.Fatalf("cache holds %d entries after a fingerprint, want 2 (one per file)", n)
	}
	p.Files["/app/index.js"] += "\nvar last = 1;"
	delete(p.Files, "/app/util.js")
	p.PruneParses()
	if n := len(p.parseCache.entries); n != 0 {
		t.Errorf("cache holds %d entries after prune, want 0 (both digests stale)", n)
	}
	if got, want := p.Fingerprint(), referenceFingerprint(p); got != want {
		t.Errorf("fingerprint after prune %s, reference %s", got, want)
	}
}

// TestFingerprintParseConcurrent runs Fingerprint and Parse on one project
// from many goroutines; under -race this checks the shared entries, and
// the counters check that each file is still parsed exactly once.
func TestFingerprintParseConcurrent(t *testing.T) {
	p := cacheProject()
	want := referenceFingerprint(p)
	paths := []string{"/app/index.js", "/app/util.js", "node:events"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if (g+i)%2 == 0 {
					if got := p.Fingerprint(); got != want {
						t.Errorf("concurrent fingerprint %s, want %s", got, want)
						return
					}
					continue
				}
				if _, err := p.Parse(paths[(g+i)%len(paths)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if parses, _ := parseCounts(p); parses != int64(len(paths)) {
		t.Errorf("parses = %d, want exactly %d (one per file)", parses, len(paths))
	}
}
