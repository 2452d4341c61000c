package testgen

import (
	"strings"
	"testing"
)

func featureSource(spec *ProjectSpec) string {
	var sb strings.Builder
	for _, src := range spec.Files {
		sb.WriteString(src)
	}
	return sb.String()
}

func TestFeatureProjectDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		a := GenFeatureProject(seed, nil)
		b := GenFeatureProject(seed, nil)
		if len(a.Files) != len(b.Files) {
			t.Fatalf("seed %d: file count differs", seed)
		}
		for p, src := range a.Files {
			if b.Files[p] != src {
				t.Fatalf("seed %d: %s differs between runs", seed, p)
			}
		}
	}
}

// TestFeatureTierGating: each single-tier grammar must produce its tier's
// signature constructs across a seed range, and must never produce another
// tier's module-level syntax (ESM import/export appears only in the esm
// tier).
func TestFeatureTierGating(t *testing.T) {
	signature := map[string][]string{
		"generators":  {"function*", "yield"},
		"combinators": {"Promise."},
		"proxy":       {"new Proxy("},
		"esm":         {"import ", "export "},
	}
	for tier, sigs := range signature {
		seen := map[string]bool{}
		for seed := uint64(0); seed < 60; seed++ {
			src := featureSource(GenFeatureProject(seed, []string{tier}))
			for _, sig := range sigs {
				if strings.Contains(src, sig) {
					seen[sig] = true
				}
			}
			if tier != "esm" {
				if strings.Contains(src, "import ") || strings.Contains(src, "export {") {
					t.Fatalf("tier %s seed %d: ESM syntax leaked into a non-esm tier", tier, seed)
				}
			}
			if tier != "proxy" && strings.Contains(src, "new Proxy(") {
				t.Fatalf("tier %s seed %d: Proxy leaked into a non-proxy tier", tier, seed)
			}
			if tier != "generators" && strings.Contains(src, "function*") {
				t.Fatalf("tier %s seed %d: generator leaked into a non-generator tier", tier, seed)
			}
		}
		for _, sig := range sigs {
			if !seen[sig] {
				t.Errorf("tier %s: construct %q never generated in 60 seeds", tier, sig)
			}
		}
	}
}

// TestFeatureTierCoverage: with every tier enabled, the driver forms of each
// tier all appear somewhere in a modest seed range — no tier starves.
func TestFeatureTierCoverage(t *testing.T) {
	wanted := []string{
		"for (var", "of ", // generator for-of driver
		".next()",  // iterator protocol driver
		"[...",     // spread driver
		".return(", // return driver
		"yield*",   // delegation
		"Promise.all(", "Promise.race(", "Promise.allSettled(", "Promise.any(",
		"new Proxy(", "apply: function", "get: function",
		"Reflect.apply(", "Reflect.set(", "Reflect.ownKeys(",
		" in ",                    // has trap
		"import * as", "import {", // esm namespace + named imports
		"export var", "export function", "export {", " as ", // live bindings, renames
	}
	var all strings.Builder
	for seed := uint64(0); seed < 150; seed++ {
		all.WriteString(featureSource(GenFeatureProject(seed, nil)))
	}
	src := all.String()
	for _, w := range wanted {
		if !strings.Contains(src, w) {
			t.Errorf("construct %q never generated across 150 all-tier seeds", w)
		}
	}
}

func TestFeatureSeedsDiffer(t *testing.T) {
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		distinct[featureSource(GenFeatureProject(seed, nil))] = true
	}
	if len(distinct) < 30 {
		t.Errorf("only %d distinct feature projects from 40 seeds", len(distinct))
	}
}

// TestFeatureUnknownTiersIgnored: unknown tier names neither crash nor
// enable anything.
func TestFeatureUnknownTiersIgnored(t *testing.T) {
	src := featureSource(GenFeatureProject(3, []string{"nope"}))
	if strings.Contains(src, "new Proxy(") || strings.Contains(src, "function*") {
		t.Error("unknown tier name enabled tier constructs")
	}
}

// TestESMDriverNamespaceBranch: with no live bindings in scope, esmDriver
// falls back to a computed-key namespace member call, translating declared
// names through their export aliases.
func TestESMDriverNamespaceBranch(t *testing.T) {
	g := New(7)
	lib := &modState{g: g, spec: "./lib",
		callables:  []string{"f1", "f2"},
		esmRenames: map[string]string{"f2": "vis9"}}
	if got := lib.esmExportedAs("f2"); got != "vis9" {
		t.Errorf("esmExportedAs(f2) = %q, want vis9", got)
	}
	if got := lib.esmExportedAs("f1"); got != "f1" {
		t.Errorf("esmExportedAs(f1) = %q, want f1", got)
	}
	m := &modState{g: g, imports: []importInfo{{local: "ns0", mod: lib}}}
	seenNS := false
	for i := 0; i < 20; i++ {
		d := m.esmDriver()
		if d == "" {
			t.Fatal("esmDriver returned nothing with a callable import in scope")
		}
		if strings.Contains(d, "ns0[") {
			seenNS = true
		}
		if strings.Contains(d, `"f2"`) {
			t.Errorf("driver used the declared name instead of its export alias:\n%s", d)
		}
	}
	if !seenNS {
		t.Error("namespace computed-key branch never produced ns0[...]")
	}
	// With no imports at all the driver degrades to a no-op.
	if d := (&modState{g: g}).esmDriver(); d != "" {
		t.Errorf("esmDriver with nothing in scope = %q, want empty", d)
	}
}
