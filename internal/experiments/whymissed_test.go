package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fuzz"
)

// TestWhyMissedAttributionComplete is the CI contract of the root-cause
// engine on the corpus: every dynamic edge the extended analysis misses
// must carry a taxonomy cause — zero unattributed — and the missed-edge
// count must match the known-gap snapshot (currently empty: test-entry
// seeding interprets the test modules, so no missing-hint gaps remain).
func TestWhyMissedAttributionComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus pipeline; skipped with -short")
	}
	rep, err := RunWhyMissed(corpus.All(), Options{SolverWorkers: soundnessSolverWorkers(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Unattributed(); got != 0 {
		t.Errorf("%d missed edge(s) unattributed (CI requires every miss to have a named root cause)", got)
	}
	total := 0
	for _, gaps := range knownSoundnessGaps {
		total += len(gaps)
	}
	if rep.TotalMissed() != total {
		t.Errorf("attributed %d missed edges, knownSoundnessGaps lists %d", rep.TotalMissed(), total)
	}
	for _, b := range rep.Benchmarks {
		for _, rc := range b.Causes {
			if rc.Cause != fuzz.CauseMissingHint {
				t.Errorf("%s: %s -> %s attributed %s, want missing-hint (update this test if the corpus changed)",
					b.Name, rc.Edge.Site, rc.Edge.TargetDesc(), rc.Cause)
			}
		}
	}
	var buf bytes.Buffer
	RenderWhyMissed(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "0 unattributed") {
		t.Errorf("report header missing unattributed count:\n%s", out)
	}
	if rep.TotalMissed() > 0 && !strings.Contains(out, "Ranked fixes:") {
		t.Errorf("report has misses but no ranked fix list:\n%s", out)
	}
}

// TestWhyMissedDeterministicAcrossWorkers renders the full attribution report
// at the default solver setting and at several epoch-engine worker counts:
// the output — causes, frontiers, chains, fix ranking — must be
// byte-identical at every -solver-workers value.
func TestWhyMissedDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three corpus sweeps; skipped with -short")
	}
	render := func(workers int) string {
		rep, err := RunWhyMissed(corpus.All(), Options{SolverWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		RenderWhyMissed(&buf, rep)
		return buf.String()
	}
	want := render(0)
	for _, workers := range []int{1, 4} {
		if got := render(workers); got != want {
			t.Errorf("attribution report differs between -solver-workers 0 and %d:\n--- workers=0 ---\n%s--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestSoundnessGapRatchet is the recall ratchet: the known-gap snapshot may
// only shrink. The floor reached zero when test-entry seeding closed the
// last three missing-hint gaps; raising it requires deliberately accepting
// a soundness regression here.
func TestSoundnessGapRatchet(t *testing.T) {
	const maxKnownGaps = 0
	total := 0
	for name, gaps := range knownSoundnessGaps {
		total += len(gaps)
		if len(gaps) == 0 {
			t.Errorf("%s: empty gap list — delete the entry instead", name)
		}
	}
	if total > maxKnownGaps {
		t.Errorf("knownSoundnessGaps lists %d edges, ratchet allows at most %d — recall may only improve",
			total, maxKnownGaps)
	}
}
