package experiments

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/perf"
)

// stripped is an Outcome with nondeterministic fields (wall times) and
// unexported state removed, for cross-run comparison.
type stripped struct {
	Name         string
	Stats        corpus.Stats
	HintCount    int
	VisitedRatio float64
	Base, Ext    interface{}
	HasDynCG     bool
	DynEdges     int
	BaseAcc      interface{}
	ExtAcc       interface{}
}

func strip(o *Outcome) stripped {
	return stripped{
		Name:         o.Name,
		Stats:        o.Stats,
		HintCount:    o.HintCount,
		VisitedRatio: o.VisitedRatio,
		Base:         o.Base,
		Ext:          o.Ext,
		HasDynCG:     o.HasDynCG,
		DynEdges:     o.DynEdges,
		BaseAcc:      o.BaseAcc,
		ExtAcc:       o.ExtAcc,
	}
}

// TestRunCorpusDeterministic asserts that the parallel driver produces
// outcomes identical to a sequential run: same order, same names, metrics,
// hint counts, and accuracies. Run under -race this also exercises the
// shared parse cache and perf counters for data races.
func TestRunCorpusDeterministic(t *testing.T) {
	// Fresh benchmark sets for each run: projects carry their own parse
	// caches, so reusing one set would let the second run see warm caches
	// (allowed, but a cold/cold comparison is the stronger check).
	seqBenches := slice(t, 6)
	parBenches := slice(t, 6)

	seq, err := RunCorpusOpts(seqBenches, Options{WithDynCG: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCorpusOpts(parBenches, Options{WithDynCG: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := strip(seq[i]), strip(par[i])
		if !reflect.DeepEqual(s, p) {
			t.Errorf("outcome %d differs:\nsequential: %+v\nparallel:   %+v", i, s, p)
		}
	}
}

// TestRunCorpusWorkersDefault checks that the worker count defaults
// sensibly and that degenerate values are accepted.
func TestRunCorpusWorkersDefault(t *testing.T) {
	bs := slice(t, 2)
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		outs, err := RunCorpusOpts(bs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(outs) != len(bs) {
			t.Fatalf("workers=%d: got %d outcomes, want %d", workers, len(outs), len(bs))
		}
		for i, o := range outs {
			if o == nil || o.Name != bs[i].Project.Name {
				t.Fatalf("workers=%d: outcome %d misplaced: %+v", workers, i, o)
			}
		}
	}
}

// TestRunBenchmarkParsesOncePerFile asserts the tentpole cache property:
// after a full pipeline run (stats, approx, baseline, extended, dyncg),
// every file was parsed exactly once, with all re-reads served by the
// project's shared parse cache.
func TestRunBenchmarkParsesOncePerFile(t *testing.T) {
	b := corpus.ByName("motivating-express")
	if b == nil {
		t.Fatal("motivating-express not in corpus")
	}
	// The project is fresh (corpus.ByName builds a new corpus), so the
	// process-wide parse counters, reset here, count its parses alone.
	perf.Global().Reset()
	if _, err := RunBenchmark(b, true); err != nil {
		t.Fatal(err)
	}
	snap := perf.Global().Snapshot()
	parses, hits := snap.Parses, snap.ParseCacheHits
	if parses < int64(len(b.Project.Files)) {
		t.Errorf("parses = %d, want at least one per project file (%d)", parses, len(b.Project.Files))
	}
	// The pipeline runs five phases over the same files; with the shared
	// cache the repeat reads vastly outnumber the parses.
	if hits <= parses {
		t.Errorf("cache hits = %d, parses = %d: cache not shared across phases", hits, parses)
	}
	// Exactly once: a second stats pass must not parse anything new.
	if _, err := corpus.ComputeStats(b); err != nil {
		t.Fatal(err)
	}
	parses2 := perf.Global().Snapshot().Parses
	if parses2 != parses {
		t.Errorf("re-running stats re-parsed: %d → %d", parses, parses2)
	}
}
