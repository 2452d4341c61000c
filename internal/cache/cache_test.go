package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/modules"
	"repro/internal/perf"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get loads a raw payload, accepting whatever the frame carries.
func get(s *Store, kind, key string) (payload []byte, ok bool) {
	ok = s.Get(kind, key, func(p []byte) error {
		payload = p
		return nil
	})
	return payload, ok
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	payload := []byte("hello artifact")
	key := HashBytes(payload)
	if _, ok := get(s, KindHints, key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(KindHints, key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := get(s, KindHints, key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %t; want payload back", got, ok)
	}
	hits, misses, written := s.Stats()
	if hits != 1 || misses != 1 || written == 0 {
		t.Errorf("Stats = %d hits, %d misses, %d bytes; want 1, 1, >0", hits, misses, written)
	}

	// A second Store over the same directory sees the entry (the
	// cross-process persistence contract).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := get(s2, KindHints, key); !ok || !bytes.Equal(got, payload) {
		t.Error("fresh store over the same dir missed a persisted entry")
	}
}

func TestNilStoreIsMiss(t *testing.T) {
	var s *Store
	if _, ok := get(s, KindHints, HashBytes(nil)); ok {
		t.Error("nil store reported a hit")
	}
	if err := s.Put(KindHints, HashBytes(nil), []byte("x")); err != nil {
		t.Errorf("nil store Put errored: %v", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := open(t)
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", "0123456/23456789"} {
		if err := s.Put(KindHints, key, []byte("x")); err != nil {
			t.Errorf("Put(%q) errored: %v", key, err)
		}
		if _, ok := get(s, KindHints, key); ok {
			t.Errorf("Get(%q) hit", key)
		}
	}
	// Nothing may have been written anywhere under the root.
	var files int
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files++
		}
		return nil
	})
	if files != 0 {
		t.Errorf("invalid keys left %d files in the cache dir", files)
	}
}

// mutateEntry rewrites the single on-disk entry through fn.
func mutateEntry(t *testing.T, s *Store, kind, key string, fn func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedEntryIsMiss(t *testing.T) {
	payload := []byte("some payload bytes for corruption")
	key := HashBytes(payload)

	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated-header", func(d []byte) []byte { return d[:6] }},
		{"truncated-payload", func(d []byte) []byte { return d[:len(d)-5] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"flipped-payload-bit", func(d []byte) []byte { d[len(d)-1] ^= 0x40; return d }},
		{"flipped-magic", func(d []byte) []byte { d[0] ^= 0xff; return d }},
		{"stale-version", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[4:8], FormatVersion+1)
			return d
		}},
		{"extra-trailing-bytes", func(d []byte) []byte { return append(d, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			if err := s.Put(KindHints, key, payload); err != nil {
				t.Fatal(err)
			}
			mutateEntry(t, s, KindHints, key, tc.fn)
			if _, ok := get(s, KindHints, key); ok {
				t.Error("corrupted entry loaded as a hit")
			}
		})
	}
}

// TestUndecodablePayloadIsMiss: a valid frame around a payload the caller
// cannot decode is a miss, in the store's counters and the perf counters.
func TestUndecodablePayloadIsMiss(t *testing.T) {
	s := open(t)
	key := HashBytes([]byte("not an outcome"))
	if err := s.Put(KindOutcome, key, []byte("not an outcome")); err != nil {
		t.Fatal(err)
	}
	perf.Global().Reset()
	if s.Get(KindOutcome, key, func([]byte) error { return errors.New("undecodable") }) {
		t.Fatal("undecodable payload loaded")
	}
	if hits, misses, _ := s.Stats(); hits != 0 || misses != 1 {
		t.Errorf("Stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	if snap := perf.Global().Snapshot(); snap.CacheHits != 0 || snap.CacheMisses != 1 {
		t.Errorf("perf counters = %d hits, %d misses; want 0, 1", snap.CacheHits, snap.CacheMisses)
	}
}

// FuzzDecodeFrame: any input is rejected, without allocating, or is a
// frame that re-encodes to the same bytes. The seeds are real corpus
// records framed by Put.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{KindHints, KindOutcome} {
			var payload []byte
			var ok bool
			if n := testing.AllocsPerRun(1, func() { payload, ok = decodeFrame(data, kind) }); n > 0 {
				t.Fatalf("decodeFrame allocated %v times", n)
			}
			if ok && !bytes.Equal(encodeFrame(kind, payload), data) {
				t.Fatalf("accepted %s frame re-encodes differently: %x", kind, data)
			}
		}
	})
}

func TestKindsDoNotAlias(t *testing.T) {
	s := open(t)
	payload := []byte("payload")
	key := HashBytes(payload)
	if err := s.Put(KindHints, key, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, KindOutcome, key); ok {
		t.Error("entry stored under one kind loaded under another")
	}
	// Even a file copied across kind directories must miss: the kind is in
	// the frame, not only in the path.
	src := s.entryPath(KindHints, key)
	dst := s.entryPath(KindOutcome, key)
	os.MkdirAll(filepath.Dir(dst), 0o755)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, KindOutcome, key); ok {
		t.Error("frame written for one kind decoded under another kind")
	}
}

func TestFingerprintFraming(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("part boundaries alias")
	}
	if Fingerprint("a", "b") != Fingerprint("a", "b") {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint("a", "") == Fingerprint("a") {
		t.Error("empty trailing part aliases with absence")
	}
}

func TestProjectFingerprint(t *testing.T) {
	mk := func() *modules.Project {
		return &modules.Project{
			Name:        "p",
			Files:       map[string]string{"/app/a.js": "1;", "/app/b.js": "2;"},
			MainEntries: []string{"/app/a.js"},
			MainPrefix:  "/app",
		}
	}
	base := ProjectFingerprint(mk())
	if got := ProjectFingerprint(mk()); got != base {
		t.Error("equal projects fingerprint differently")
	}
	edited := mk()
	edited.Files["/app/b.js"] = "3;"
	if ProjectFingerprint(edited) == base {
		t.Error("content edit did not change the fingerprint")
	}
	renamed := mk()
	renamed.Name = "q"
	if ProjectFingerprint(renamed) == base {
		t.Error("project rename did not change the fingerprint")
	}
	entry := mk()
	entry.TestEntries = []string{"/app/b.js"}
	if ProjectFingerprint(entry) == base {
		t.Error("entry change did not change the fingerprint")
	}
}

// TestProjectFingerprintListBoundaries: lists are count-prefixed, so an
// entry whose value equals a neighboring section's content cannot slide
// between lists and alias.
func TestProjectFingerprintListBoundaries(t *testing.T) {
	mk := func(mains, tests []string) *modules.Project {
		return &modules.Project{
			Name:        "p",
			Files:       map[string]string{"/a.js": "1;"},
			MainEntries: mains,
			TestEntries: tests,
		}
	}
	if ProjectFingerprint(mk([]string{"test"}, nil)) == ProjectFingerprint(mk(nil, []string{"test"})) {
		t.Error("MainEntries=[test] aliases with TestEntries=[test]")
	}
	if ProjectFingerprint(mk([]string{"a", "b"}, nil)) == ProjectFingerprint(mk([]string{"a"}, []string{"b"})) {
		t.Error("entry slid across the main/test list boundary without changing the fingerprint")
	}
}

// TestProjectFingerprintTracksEdits: the key of a project that is edited
// in place after it was fingerprinted equals the key of a freshly built
// project with the same content, so a memoized file digest can never
// serve a stale key.
func TestProjectFingerprintTracksEdits(t *testing.T) {
	mk := func(b string) *modules.Project {
		return &modules.Project{
			Name:        "p",
			Files:       map[string]string{"/app/a.js": "1;", "/app/b.js": b},
			MainEntries: []string{"/app/a.js"},
			MainPrefix:  "/app",
		}
	}
	p := mk("2;")
	base := ProjectFingerprint(p)
	p.Files["/app/b.js"] = "3;"
	if got, want := ProjectFingerprint(p), ProjectFingerprint(mk("3;")); got != want || got == base {
		t.Errorf("edited project keys as %s, fresh project with its content as %s (before the edit %s)", got, want, base)
	}
	p.Files["/app/b.js"] = "2;"
	if got := ProjectFingerprint(p); got != base {
		t.Errorf("reverted project keys as %s, want the original %s", got, base)
	}
}

// TestOpenSweepsStaleTempFiles: a temp file orphaned by a writer killed
// between CreateTemp and Rename is collected by the next Open, while a
// fresh temp file (a possibly live concurrent writer) is left alone.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, KindHints, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shard, ".abcd1234.tmp42")
	fresh := filepath.Join(shard, ".abcd5678.tmp43")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was swept (may belong to a live writer)")
	}
}

// TestOptionsFingerprintMismatch is the invalidation story for analysis
// options: artifacts are keyed by Fingerprint(..., optionsString), so a
// changed option resolves to a different key and the old artifact is
// simply never consulted.
func TestOptionsFingerprintMismatch(t *testing.T) {
	s := open(t)
	fp := "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
	keyA := Fingerprint("outcome", "v1", fp, "dyn=true")
	keyB := Fingerprint("outcome", "v1", fp, "dyn=false")
	if keyA == keyB {
		t.Fatal("differing options produced the same key")
	}
	if err := s.Put(KindOutcome, keyA, []byte("outcome-under-A")); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, KindOutcome, keyB); ok {
		t.Error("artifact stored under one options fingerprint served under another")
	}
}

// TestConcurrentStores hammers one shared cache directory from two Store
// values (standing in for two processes) with overlapping keys, under the
// race detector in CI.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 24
	payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }
	var wg sync.WaitGroup
	for _, s := range []*Store{s1, s2} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					i := (g*7 + round) % keys
					key := HashBytes(payload(i))
					if got, ok := get(s, KindHints, key); ok && !bytes.Equal(got, payload(i)) {
						t.Errorf("hit returned wrong payload for key %d", i)
						return
					}
					if err := s.Put(KindHints, key, payload(i)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}(s, g)
		}
	}
	wg.Wait()
	// After the dust settles every key must load with the right payload.
	for i := 0; i < keys; i++ {
		key := HashBytes(payload(i))
		got, ok := get(s1, KindHints, key)
		if !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("key %d: Get = %q, %t after concurrent writes", i, got, ok)
		}
	}
}
