package main

import (
	"slices"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/modules"
	"repro/internal/static"
)

// spinLib is the library module of motivating-express whose hints the
// extended graph depends on most.
const spinLib = "/node_modules/merge-descriptors/index.js"

// spinDeadline is the per-item pre-analysis deadline: far above any item of
// the project, far below the spin's.
const spinDeadline = 200 * time.Millisecond

// spinProject returns a fresh copy of motivating-express whose spinLib also
// defines a function that the pre-analysis forces and that only the
// deadline stops, so the module faults after its hints were observed.
func spinProject() *modules.Project {
	p := corpus.ByName("motivating-express").Project
	files := make(map[string]string, len(p.Files))
	for path, src := range p.Files {
		files[path] = src
	}
	files[spinLib] += "\nfunction spinFor(n) { return n > 0 ? spinFor(n - 1) + spinFor(n - 1) : 0; }\n" +
		"function neverCalled() { return spinFor(64); }\n"
	return &modules.Project{Name: p.Name, Files: files,
		MainEntries: p.MainEntries, TestEntries: p.TestEntries, MainPrefix: p.MainPrefix}
}

// TestFaultedModuleDegradedLikeEvaluate: hints anchored in a module whose
// pre-analysis faulted are dropped here as the corpus driver drops them, so
// the extended metrics agree.
func TestFaultedModuleDegradedLikeEvaluate(t *testing.T) {
	_, ext, ar, err := analyzeBoth(spinProject(), "", approx.Options{Deadline: spinDeadline},
		static.Options{Mode: static.WithHints})
	if err != nil {
		t.Fatal(err)
	}
	if !ar.FaultedModules()[spinLib] {
		t.Fatalf("pre-analysis faults %v, want one in %s", ar.Faults, spinLib)
	}
	outs, err := experiments.RunCorpusOpts([]*corpus.Benchmark{{Project: spinProject()}},
		experiments.Options{Workers: 1, ApproxDeadline: spinDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ext.Metrics(), outs[0].Ext; got != want {
		t.Errorf("extended metrics %v, corpus driver %v", got, want)
	}
	if !slices.Equal(ext.DegradedModules, outs[0].DegradedModules) || !slices.Contains(ext.DegradedModules, spinLib) {
		t.Errorf("degraded modules %v, corpus driver %v", ext.DegradedModules, outs[0].DegradedModules)
	}
}
