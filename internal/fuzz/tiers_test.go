package fuzz

import (
	"testing"

	"repro/internal/testgen"
)

// TestFeatureTierSmoke is the committed differential run of the
// feature-tier grammars: every tier is fuzzed on its own (so tier-specific
// constructs cannot hide behind the mixed grammar) and once with every
// tier enabled. Like the core smoke test, any bucket not covered by a
// committed open reproducer fails.
func TestFeatureTierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tier differential run; skipped with -short")
	}
	known, err := KnownBuckets(openDir(t))
	if err != nil {
		t.Fatal(err)
	}
	tierSets := make([][]string, 0, len(testgen.FeatureTiers)+1)
	for _, tier := range testgen.FeatureTiers {
		tierSets = append(tierSets, []string{tier})
	}
	tierSets = append(tierSets, testgen.FeatureTiers)
	for _, tiers := range tierSets {
		rep := Run(Options{Seeds: 300, Tiers: tiers})
		for _, b := range rep.SortedBuckets() {
			f := rep.Representative[b]
			if known[b] {
				t.Logf("tiers %v: known-open bucket %s: %d failures (first: seed %d)",
					tiers, b, rep.Buckets[b], f.Seed)
				continue
			}
			t.Errorf("tiers %v: new divergence bucket %s: %d failures; first: %s",
				tiers, b, rep.Buckets[b], f)
		}
	}
}

// TestFeatureTierSolverWorkersIdentical: the tier grammar must report the
// exact same failures whatever the epoch engine's worker count.
func TestFeatureTierSolverWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three differential runs; skipped with -short")
	}
	var base *Report
	for _, w := range []int{0, 1, 4} {
		rep := Run(Options{Seeds: 120, Tiers: testgen.FeatureTiers, SolverWorkers: w})
		if base == nil {
			base = rep
			continue
		}
		if len(rep.Failures) != len(base.Failures) {
			t.Fatalf("solver-workers %d: %d failures vs %d with solver-workers 0",
				w, len(rep.Failures), len(base.Failures))
		}
		for i := range rep.Failures {
			if rep.Failures[i].String() != base.Failures[i].String() {
				t.Errorf("solver-workers %d: failure %d differs: %s vs %s",
					w, i, rep.Failures[i], base.Failures[i])
			}
		}
	}
}

// TestCheckSeedTiersDeterministic: one tier seed checked twice yields the
// same verdict — the tier pipeline has no hidden nondeterminism.
func TestCheckSeedTiersDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		a := CheckSeedTiers(seed, []string{"generators", "proxy"})
		b := CheckSeedTiers(seed, []string{"generators", "proxy"})
		switch {
		case (a == nil) != (b == nil):
			t.Fatalf("seed %d: verdict differs between runs", seed)
		case a != nil && a.String() != b.String():
			t.Fatalf("seed %d: failure differs: %s vs %s", seed, a, b)
		}
	}
}
