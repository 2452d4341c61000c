package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/perf"
)

// corpusFixture is one cache-free evaluation of the whole corpus, with
// dynamic call graphs and the ablation arm so that every record field is
// filled, shared by the record tests and benchmarks of one test binary.
var corpusFixture struct {
	once sync.Once
	bs   []*corpus.Benchmark
	outs []*Outcome
	err  error
}

// fixtureOpts are the options of corpusFixture's evaluation.
var fixtureOpts = Options{WithDynCG: true, WithAblation: true}

func corpusOutcomes(tb testing.TB) ([]*corpus.Benchmark, []*Outcome) {
	tb.Helper()
	f := &corpusFixture
	f.once.Do(func() {
		f.bs = corpus.All()
		f.outs, f.err = RunCorpusOpts(f.bs, fixtureOpts)
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.bs, f.outs
}

// cachedView is what a cache hit must reproduce of a fresh outcome: only
// fault-free runs are cached, and the codec does not tell a nil slice from
// an empty one (no reader does).
func cachedView(o *Outcome) Outcome {
	v := *o
	if len(v.Faults) == 0 {
		v.Faults = nil
	}
	if len(v.DegradedModules) == 0 {
		v.DegradedModules = nil
	}
	return v
}

// TestCorpusOutcomeRecordsRoundTrip stores every corpus outcome and loads
// it back through the artifact store: the loaded outcome must equal the
// fresh one field for field, private fields included, and re-encode to
// the stored bytes. Every proper prefix of a record must fail to decode,
// and a valid frame around a truncated record must load as a miss.
func TestCorpusOutcomeRecordsRoundTrip(t *testing.T) {
	bs, outs := corpusOutcomes(t)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smallest := -1
	var records [][]byte
	for i, o := range outs {
		if len(o.Faults) > 0 || len(o.DegradedModules) > 0 {
			t.Fatalf("%s: corpus outcome has faults; only fault-free runs are cached", o.Name)
		}
		key := outcomeKey(cache.ProjectFingerprint(bs[i].Project), fixtureOpts, bs[i])
		storeOutcome(store, key, o)
		got, ok := loadOutcome(store, key, bs[i])
		if !ok {
			t.Fatalf("%s: stored outcome missed", o.Name)
		}
		if want := cachedView(o); !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: loaded outcome differs from the fresh one:\n got %+v\nwant %+v", o.Name, *got, want)
		}
		rec := encodeOutcome(o)
		if again := encodeOutcome(got); !bytes.Equal(again, rec) {
			t.Errorf("%s: loaded outcome re-encodes to different bytes", o.Name)
		}
		records = append(records, rec)
		if smallest < 0 || len(rec) < len(records[smallest]) {
			smallest = i
		}
	}

	for i, rec := range records {
		for n := 0; n < len(rec); n++ {
			if _, err := decodeOutcome(rec[:n]); err == nil {
				t.Fatalf("%s: record truncated to %d of %d bytes decoded", outs[i].Name, n, len(rec))
			}
		}
	}

	b, rec := bs[smallest], records[smallest]
	key := outcomeKey(cache.ProjectFingerprint(b.Project), fixtureOpts, b)
	for n := 0; n < len(rec); n++ {
		if err := store.Put(cache.KindOutcome, key, rec[:n]); err != nil {
			t.Fatal(err)
		}
		perf.Global().Reset()
		if _, ok := loadOutcome(store, key, b); ok {
			t.Fatalf("%s: record truncated to %d bytes loaded as a hit", b.Project.Name, n)
		}
		if s := perf.Global().Snapshot(); s.CacheHits != 0 || s.CacheMisses != 1 {
			t.Fatalf("truncated record counted %d hits, %d misses; want 0, 1", s.CacheHits, s.CacheMisses)
		}
	}
}

func TestApproxRecordRoundTrip(t *testing.T) {
	rec := approxRecord{HintCount: 7, VisitedRatio: 0.1 + 0.2, DurationNS: -3, HintsJSON: []byte(`{"x":1}`)}
	data := encodeApprox(rec)
	got, err := decodeApprox(data)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("decodeApprox = %+v, %v; want %+v", got, err, rec)
	}
	for n := 0; n < len(data); n++ {
		if _, err := decodeApprox(data[:n]); err == nil {
			t.Errorf("record truncated to %d of %d bytes decoded", n, len(data))
		}
	}
	if _, err := decodeApprox(append(data, 0)); err == nil {
		t.Error("record with a trailing byte decoded")
	}
}

// TestRecordDecodeRejects covers the strictness rules that keep decoding
// canonical: each input is a valid prefix followed by one bad field.
func TestRecordDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(r *recReader)
		data []byte
	}{
		{"non-minimal varint", func(r *recReader) { r.uvarint() }, []byte{0x80, 0x00}},
		{"overflowing varint", func(r *recReader) { r.uvarint() }, bytes.Repeat([]byte{0xff}, 11)},
		{"flag byte 2", func(r *recReader) { r.bool() }, []byte{2}},
		{"length past the end", func(r *recReader) { r.bytes() }, []byte{5, 'a', 'b'}},
		{"string-table index past the table", func(r *recReader) { r.tableString() }, []byte{1}},
		{"repeated string-table entry", func(r *recReader) { r.tableString(); r.tableString() }, []byte{0, 1, 'a', 1, 1, 'a'}},
		{"trailing byte", func(r *recReader) { r.bool() }, []byte{1, 0}},
	} {
		r := recReader{buf: tc.data}
		tc.read(&r)
		if r.end() == nil {
			t.Errorf("%s: %x decoded", tc.name, tc.data)
		}
	}
}

// decodeAllocBound is how many bytes a record decode may allocate: a fixed
// slack plus allocPerByte for every input byte, which covers the map
// entries and slice headers that one or a few input bytes can claim.
const (
	allocPerByte = 64
	allocSlack   = 64 << 10
)

func checkDecodeAllocs(t *testing.T, data []byte, decode func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decode()
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(allocPerByte*len(data)+allocSlack); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, more than %d", len(data), got, limit)
	}
}

// FuzzDecodeOutcome: any input is rejected or decodes, within the
// allocation bound, to an outcome that re-encodes to the same bytes. The
// seeds in testdata/fuzz are real corpus records (file names are their
// projects); TestFuzzSeedsDecode keeps them current.
func FuzzDecodeOutcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var out *Outcome
		var err error
		checkDecodeAllocs(t, data, func() { out, err = decodeOutcome(data) })
		if err != nil {
			return
		}
		if again := encodeOutcome(out); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}

// FuzzDecodeApprox is FuzzDecodeOutcome for approx records.
func FuzzDecodeApprox(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec approxRecord
		var err error
		checkDecodeAllocs(t, data, func() { rec, err = decodeApprox(data) })
		if err != nil {
			return
		}
		if again := encodeApprox(rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}

// TestFuzzSeedsDecode: the committed fuzz seeds must decode, or a layout
// change has left the fuzz targets starting from rejected inputs only.
// Regenerate them from encodeOutcome/encodeApprox of the named projects.
func TestFuzzSeedsDecode(t *testing.T) {
	for target, decode := range map[string]func([]byte) error{
		"FuzzDecodeOutcome": func(b []byte) error { _, err := decodeOutcome(b); return err },
		"FuzzDecodeApprox":  func(b []byte) error { _, err := decodeApprox(b); return err },
	} {
		seeds := readFuzzSeeds(t, "testdata/fuzz/"+target)
		if len(seeds) == 0 {
			t.Errorf("%s: no seeds", target)
		}
		for name, data := range seeds {
			if err := decode(data); err != nil {
				t.Errorf("%s/%s: %v", target, name, err)
			}
		}
	}
}

// readFuzzSeeds reads a native fuzz corpus directory whose entries each
// hold one []byte value.
func readFuzzSeeds(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	for _, e := range entries {
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s/%s: not a one-[]byte fuzz corpus entry", dir, e.Name())
		}
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s/%s: %v", dir, e.Name(), err)
		}
		seeds[e.Name()] = []byte(v)
	}
	return seeds
}

func BenchmarkOutcomeEncode(b *testing.B) {
	_, outs := corpusOutcomes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, o := range outs {
			n += len(encodeOutcome(o))
		}
		b.SetBytes(int64(n))
	}
}

func BenchmarkOutcomeDecode(b *testing.B) {
	_, outs := corpusOutcomes(b)
	var records [][]byte
	n := 0
	for _, o := range outs {
		records = append(records, encodeOutcome(o))
		n += len(records[len(records)-1])
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range records {
			if _, err := decodeOutcome(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
