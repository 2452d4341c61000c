package experiments

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/perf"
)

// TestCorpusCacheWarmRun: a second corpus run against the same store must
// be served entirely from outcome artifacts — zero parses, zero misses on
// the outcome path — and render byte-identical content reports.
func TestCorpusCacheWarmRun(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{WithDynCG: true, Cache: store}

	run := func() ([]*Outcome, []byte, perf.Snapshot) {
		t.Helper()
		bs := corpus.WithDynCG()[:4]
		perf.Global().Reset()
		outs, err := RunCorpusOpts(bs, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot before rendering, like deltaArm: the vulnerability study
		// rebuilds dynamic graphs and its parses are not analysis cost.
		snap := perf.Global().Snapshot()
		reports, err := renderContentReports(bs, outs)
		if err != nil {
			t.Fatal(err)
		}
		return outs, reports, snap
	}

	outs1, reports1, cold := run()
	if cold.CacheMisses == 0 {
		t.Error("cold run missed nothing in an empty store")
	}
	if cold.CacheBytesWritten == 0 {
		t.Error("cold run wrote nothing to the store")
	}

	outs2, reports2, warm := run()
	if !bytes.Equal(reports1, reports2) {
		t.Error("warm-run content reports differ from cold run")
	}
	if warm.Parses != 0 {
		t.Errorf("warm run parsed %d files, want 0", warm.Parses)
	}
	if warm.CacheHits != int64(len(outs2)) {
		t.Errorf("warm run hit %d artifacts, want %d (one outcome per project)", warm.CacheHits, len(outs2))
	}
	if warm.CacheMisses != 0 {
		t.Errorf("warm run missed %d artifacts, want 0", warm.CacheMisses)
	}
	if warm.SolveIterations != 0 || warm.TokensDelivered != 0 {
		t.Errorf("warm run did solver work: %d iterations, %d tokens", warm.SolveIterations, warm.TokensDelivered)
	}

	// Cached outcomes must reproduce everything, including timings (they
	// are stored so warm runs render identical timing tables).
	for i := range outs1 {
		a, b := outs1[i], outs2[i]
		if a.Name != b.Name || a.HintCount != b.HintCount || a.Ext.CallEdges != b.Ext.CallEdges {
			t.Errorf("outcome %d drifted: %s/%d/%d vs %s/%d/%d",
				i, a.Name, a.HintCount, a.Ext.CallEdges, b.Name, b.HintCount, b.Ext.CallEdges)
		}
		if a.ApproxTime != b.ApproxTime || a.ExtendedTime != b.ExtendedTime {
			t.Errorf("outcome %d: cached run did not reproduce recorded timings", i)
		}
	}
}

// TestCorpusCacheEditInvalidates: editing one project's file invalidates
// exactly that project's whole-outcome artifact; the rest still hit.
func TestCorpusCacheEditInvalidates(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{WithDynCG: true, Cache: store}
	if _, err := RunCorpusOpts(corpus.WithDynCG()[:4], opts); err != nil {
		t.Fatal(err)
	}

	bs := corpus.WithDynCG()[:4]
	edited, path := applyDeltaEdit(bs[:1])
	if edited == "" {
		t.Fatal("no editable benchmark")
	}
	perf.Global().Reset()
	outs, err := RunCorpusOpts(bs, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := perf.Global().Snapshot()
	if snap.DeltaModulesRean != int64(len(bs[0].Project.Files)) {
		t.Errorf("reanalyzed %d modules, want the edited project's %d", snap.DeltaModulesRean, len(bs[0].Project.Files))
	}
	if snap.CacheHits < 3 {
		t.Errorf("cache hits = %d, want at least the 3 unchanged projects' outcomes", snap.CacheHits)
	}

	// The edited project's outcome must match a from-scratch run of it.
	fresh := corpus.WithDynCG()[:1]
	if got, _ := applyDeltaEdit(fresh); got != edited {
		t.Fatalf("deterministic edit drifted: %q vs %q (file %s)", got, edited, path)
	}
	perf.Global().Reset()
	scratch, err := RunCorpusOpts(fresh, Options{WithDynCG: true})
	if err != nil {
		t.Fatal(err)
	}
	// Parses are not stored, so the edited project parses exactly as much
	// as a from-scratch run of it, and the unchanged projects not at all.
	if want := perf.Global().Snapshot().Parses; snap.Parses != want {
		t.Errorf("parsed %d files, want %d (the edited project's from-scratch parses)", snap.Parses, want)
	}
	if outs[0].Ext.CallEdges != scratch[0].Ext.CallEdges || outs[0].HintCount != scratch[0].HintCount {
		t.Errorf("edited project via cache: %d edges/%d hints; from scratch: %d/%d",
			outs[0].Ext.CallEdges, outs[0].HintCount, scratch[0].Ext.CallEdges, scratch[0].HintCount)
	}
}

// TestRunDeltaBench exercises the full four-arm benchmark harness (the
// generator of the bench snapshot's delta rows) end to end, including its
// in-harness byte-identical assertions.
func TestRunDeltaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus benchmark; skipped in -short")
	}
	snap, err := RunDeltaBench(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(snap.Rows))
	}
	cold, warm, editWarm := snap.Row("delta/cold"), snap.Row("delta/warm"), snap.Row("delta/edit-warm")
	if cold == nil || warm == nil || editWarm == nil {
		t.Fatalf("missing cold, warm or edit-warm row: %+v", snap.Rows)
	}
	if warm.CacheMisses != 0 || warm.Parses != 0 {
		t.Errorf("warm arm not fully cached: %+v", warm)
	}
	if ws, es := cold.WallMS/warm.WallMS, cold.WallMS/editWarm.WallMS; ws < 5 || es < 5 {
		t.Errorf("speedups %.1fx/%.1fx below the 5x floor", ws, es)
	}
	if editWarm.DeltaModulesRean == 0 {
		t.Errorf("edit-warm arm reanalyzed no modules: %+v", editWarm)
	}
}
