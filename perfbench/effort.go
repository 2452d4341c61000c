package main

import (
	"math/rand"

	"repro/internal/modules"
	"repro/internal/perf"
)

// setupReps is how many times each workload sets up; setup_s is the
// median. Set-ups that take well under a second repeat more often, so
// their median is steadier; corpus-cache's fills a store with a whole cold
// corpus pass (about 4 s), so it repeats three times.
var setupReps = map[string]int{"corpus-cold": 9, "corpus-cache": 3, "mega-solve": 9, "daemon-edit": 5}

// effort is the pipeline's exact effort counters (internal/perf), read as
// deltas around a loop or an op. Only one op is in flight, so a delta is
// that op's work.
type effort struct {
	Parses, ParseHits        int64
	Iterations, Tokens       int64
	Cycles, Redundant        int64
	Epochs, AsyncSweeps      int64
	CacheHits, CacheMisses   int64
	CacheBytes, DeltaModules int64
	ScanMS, ApplyMS, TailMS  float64
	OverlapMS                float64
}

func readEffort() effort {
	s := perf.Global().Snapshot()
	return effort{
		Parses: s.Parses, ParseHits: s.ParseCacheHits,
		Iterations: s.SolveIterations, Tokens: s.TokensDelivered,
		Cycles: s.CyclesCollapsed, Redundant: s.RedundantSkipped,
		Epochs: s.SolverEpochs, AsyncSweeps: s.SolverAsyncSweeps,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses,
		CacheBytes: s.CacheBytesWritten, DeltaModules: s.DeltaModulesRean,
		ScanMS: s.SolverScanMS, ApplyMS: s.SolverApplyMS, TailMS: s.SolverTailMS,
		OverlapMS: s.SolverSweepOverlapMS,
	}
}

func (a effort) sub(b effort) effort {
	return effort{
		Parses: a.Parses - b.Parses, ParseHits: a.ParseHits - b.ParseHits,
		Iterations: a.Iterations - b.Iterations, Tokens: a.Tokens - b.Tokens,
		Cycles: a.Cycles - b.Cycles, Redundant: a.Redundant - b.Redundant,
		Epochs: a.Epochs - b.Epochs, AsyncSweeps: a.AsyncSweeps - b.AsyncSweeps,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheBytes: a.CacheBytes - b.CacheBytes, DeltaModules: a.DeltaModules - b.DeltaModules,
		ScanMS: a.ScanMS - b.ScanMS, ApplyMS: a.ApplyMS - b.ApplyMS, TailMS: a.TailMS - b.TailMS,
		OverlapMS: a.OverlapMS - b.OverlapMS,
	}
}

// exact returns the counters that must repeat exactly across runs of one
// seed. Cache bytes written are left out: records carry phase durations,
// whose varint encodings vary in length with the measured time.
func (a effort) exact() map[string]int64 {
	return map[string]int64{
		"parses": a.Parses, "parse_hits": a.ParseHits,
		"solve_iterations": a.Iterations, "tokens_delivered": a.Tokens,
		"cycles_collapsed": a.Cycles, "redundant_skipped": a.Redundant,
		"epochs": a.Epochs, "async_sweeps": a.AsyncSweeps,
		"cache_hits": a.CacheHits, "cache_misses": a.CacheMisses,
		"delta_modules": a.DeltaModules,
	}
}

// layers fills the per-layer counters every workload reports from the
// effort of its traced loop.
func (a effort) layers(m map[string]float64) {
	m["parse.files"] = float64(a.Parses)
	m["static.solve_iterations"] = float64(a.Iterations)
	m["static.tokens_delivered"] = float64(a.Tokens)
	m["static.cycles_collapsed"] = float64(a.Cycles)
	if a.Tokens > 0 {
		m["static.redundant_ratio"] = float64(a.Redundant) / float64(a.Tokens)
	}
	m["static.epochs"] = float64(a.Epochs)
	m["static.async_sweeps"] = float64(a.AsyncSweeps)
	m["cache.hits"] = float64(a.CacheHits)
	m["cache.misses"] = float64(a.CacheMisses)
	m["cache.bytes_written"] = float64(a.CacheBytes)
	if n := a.CacheHits + a.CacheMisses; n > 0 {
		m["cache.hit_ratio"] = float64(a.CacheHits) / float64(n)
	}
}

// cloneProject returns a fresh project value with the same content and an
// empty parse cache — what regenerating the project would give, without
// regenerating the rest of the corpus.
func cloneProject(p *modules.Project) *modules.Project {
	files := make(map[string]string, len(p.Files))
	for k, v := range p.Files {
		files[k] = v
	}
	return &modules.Project{
		Name:        p.Name,
		Files:       files,
		MainEntries: append([]string(nil), p.MainEntries...),
		TestEntries: append([]string(nil), p.TestEntries...),
		MainPrefix:  p.MainPrefix,
	}
}

// mainFiles lists a project's main-package files in sorted order.
func mainFiles(p *modules.Project) []string {
	var out []string
	for _, path := range p.SortedPaths() {
		if p.IsMainModule(path) {
			out = append(out, path)
		}
	}
	return out
}

func newRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// permutation is a seeded permutation of 0..n-1.
func permutation(seed int64, n int) []int {
	return newRNG(seed, 1).Perm(n)
}
