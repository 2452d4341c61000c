// Package perf provides lightweight, concurrency-safe phase timers and
// counters for the analysis pipeline. The packages doing the work (modules
// for parsing, static for constraint solving, core and experiments for
// phase orchestration) record into the process-wide Global counters;
// cmd/evaluate resets them before a run, snapshots them after, and renders
// the snapshot as a report. Labelled with a workload, an arm and the host,
// a snapshot becomes one Row of the bench snapshot (Bench, BENCH.json),
// which cmd/benchcheck compares against the committed one.
//
// All methods are safe for concurrent use — the parallel corpus driver has
// many workers recording at once — and the zero Counters value is ready.
package perf

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// Phase identifies a pipeline stage for wall-time accounting.
type Phase int

// Pipeline phases, in execution order.
const (
	PhaseParse Phase = iota
	PhaseApprox
	PhaseBaseline
	PhaseExtended
	PhaseDynCG
	numPhases
)

var phaseNames = [numPhases]string{"parse", "approx", "baseline", "extended", "dyncg"}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Counters accumulates pipeline statistics.
type Counters struct {
	phaseNS         [numPhases]atomic.Int64
	phaseAllocBytes [numPhases]atomic.Int64

	projects       atomic.Int64
	parses         atomic.Int64
	parseCacheHits atomic.Int64

	solveIterations atomic.Int64
	tokensDelivered atomic.Int64

	// Incremental-solve split: fixpoint effort spent reaching the baseline
	// fixpoint vs. effort spent on the resumed [DPR]/[DPW] delta solve
	// (static.AnalyzeBoth). Their sum is what the combined path actually
	// paid; a two-pass run would have paid the baseline share twice.
	solveIterationsBase  atomic.Int64
	solveIterationsDelta atomic.Int64
	tokensDeliveredBase  atomic.Int64
	tokensDeliveredDelta atomic.Int64

	// Robustness: contained failures (recovered panics, deadline/step
	// aborts, corrupt files) and modules degraded to baseline-only hints.
	faultsContained atomic.Int64
	modulesDegraded atomic.Int64

	// Cycle-collapse activity in the subset solver: unification events,
	// variables absorbed into representatives, edges dropped as duplicate
	// or self under condensation, and deliveries short-circuited because
	// the representative had already processed the token.
	cyclesCollapsed  atomic.Int64
	varsUnified      atomic.Int64
	edgesDeduped     atomic.Int64
	redundantSkipped atomic.Int64

	// Epoch-engine activity: epochs crossed, deliveries whose target landed
	// in a different shard than the source, representatives visited by all
	// cycle sweeps, and the wall time split between the pipeline phases —
	// the read-only scan+winnow, the shard-owned parallel apply pass, and
	// the serial reconciliation tail — and the cycle sweeps between them.
	solverEpochs       atomic.Int64
	solverCrossShard   atomic.Int64
	solverSweepVisited atomic.Int64
	solverScanNS       atomic.Int64
	solverApplyNS      atomic.Int64
	solverTailNS       atomic.Int64
	solverSweepNS      atomic.Int64

	// Persistent-cache activity (zero when no cache store is attached):
	// artifact loads served from disk, loads that missed (including
	// corrupt/stale entries, which are misses by design), bytes written to
	// the store, and modules that went through full re-analysis because
	// their project's content fingerprint was not cached (on a warm
	// one-file-edit run this is just the dirty project's module count).
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	cacheBytesWritten atomic.Int64
	deltaModulesRean  atomic.Int64
}

var global Counters

// Global returns the process-wide counters.
func Global() *Counters { return &global }

// AddPhase accrues wall time to a phase.
func (c *Counters) AddPhase(p Phase, d time.Duration) {
	if p >= 0 && p < numPhases {
		c.phaseNS[p].Add(int64(d))
	}
}

// AddProject counts one evaluated project.
func (c *Counters) AddProject() { c.projects.Add(1) }

// AddParse counts one actual parse and accrues its wall time.
func (c *Counters) AddParse(d time.Duration) {
	c.parses.Add(1)
	c.phaseNS[PhaseParse].Add(int64(d))
}

// AddParseHit counts one parse-cache hit (a parse avoided).
func (c *Counters) AddParseHit() { c.parseCacheHits.Add(1) }

// AddSolve accrues one constraint-solver run: fixpoint iterations (queue
// pops) and tokens delivered (propagation attempts on the hot path).
func (c *Counters) AddSolve(iterations, tokens int64) {
	c.solveIterations.Add(iterations)
	c.tokensDelivered.Add(tokens)
}

// AddIncrementalSolve accrues one incremental baseline+extended run,
// split into the baseline-phase effort and the resumed-delta effort.
func (c *Counters) AddIncrementalSolve(baseIters, baseTokens, deltaIters, deltaTokens int64) {
	c.solveIterationsBase.Add(baseIters)
	c.tokensDeliveredBase.Add(baseTokens)
	c.solveIterationsDelta.Add(deltaIters)
	c.tokensDeliveredDelta.Add(deltaTokens)
}

// AddSolveStructure accrues one solver's cycle-collapse activity: collapse
// events, variables unified, edges deduplicated, and redundant deliveries
// skipped.
func (c *Counters) AddSolveStructure(cycles, unified, deduped, skipped int64) {
	c.cyclesCollapsed.Add(cycles)
	c.varsUnified.Add(unified)
	c.edgesDeduped.Add(deduped)
	c.redundantSkipped.Add(skipped)
}

// AddSolverParallel accrues one parallel-solver run: epochs crossed,
// cross-shard deliveries, representatives the cycle sweeps visited, and the
// scan/apply/tail/sweep wall-time split.
func (c *Counters) AddSolverParallel(epochs, crossShard, sweepVisited, scanNS, applyNS, tailNS, sweepNS int64) {
	c.solverEpochs.Add(epochs)
	c.solverCrossShard.Add(crossShard)
	c.solverSweepVisited.Add(sweepVisited)
	c.solverScanNS.Add(scanNS)
	c.solverApplyNS.Add(applyNS)
	c.solverTailNS.Add(tailNS)
	c.solverSweepNS.Add(sweepNS)
}

// AddCacheHit counts one artifact load served by the persistent store.
func (c *Counters) AddCacheHit() { c.cacheHits.Add(1) }

// AddCacheMiss counts one artifact load the persistent store could not
// serve (absent, corrupt, truncated, or stale-version entries all count
// here — they are equivalent to the analysis).
func (c *Counters) AddCacheMiss() { c.cacheMisses.Add(1) }

// AddCacheBytes accrues bytes written to the persistent store.
func (c *Counters) AddCacheBytes(n int64) { c.cacheBytesWritten.Add(n) }

// AddDeltaModules counts modules re-analyzed because their project's
// content fingerprint missed the cache.
func (c *Counters) AddDeltaModules(n int) { c.deltaModulesRean.Add(int64(n)) }

// AddFaults counts contained failures and the modules degraded for them.
func (c *Counters) AddFaults(faults, degraded int) {
	c.faultsContained.Add(int64(faults))
	c.modulesDegraded.Add(int64(degraded))
}

// AddPhaseAlloc accrues heap-allocation bytes to a phase.
func (c *Counters) AddPhaseAlloc(p Phase, bytes int64) {
	if p >= 0 && p < numPhases {
		c.phaseAllocBytes[p].Add(bytes)
	}
}

// TotalAllocBytes reads the process-wide cumulative heap allocation
// (runtime.MemStats.TotalAlloc). Deltas of this value around a phase give
// that phase's allocation: exact with one worker, approximate (other
// goroutines' allocations bleed in) when phases overlap.
func TotalAllocBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for i := range c.phaseNS {
		c.phaseNS[i].Store(0)
		c.phaseAllocBytes[i].Store(0)
	}
	c.projects.Store(0)
	c.parses.Store(0)
	c.parseCacheHits.Store(0)
	c.solveIterations.Store(0)
	c.tokensDelivered.Store(0)
	c.solveIterationsBase.Store(0)
	c.solveIterationsDelta.Store(0)
	c.tokensDeliveredBase.Store(0)
	c.tokensDeliveredDelta.Store(0)
	c.faultsContained.Store(0)
	c.modulesDegraded.Store(0)
	c.cyclesCollapsed.Store(0)
	c.varsUnified.Store(0)
	c.edgesDeduped.Store(0)
	c.redundantSkipped.Store(0)
	c.solverEpochs.Store(0)
	c.solverCrossShard.Store(0)
	c.solverSweepVisited.Store(0)
	c.solverScanNS.Store(0)
	c.solverApplyNS.Store(0)
	c.solverTailNS.Store(0)
	c.solverSweepNS.Store(0)
	c.cacheHits.Store(0)
	c.cacheMisses.Store(0)
	c.cacheBytesWritten.Store(0)
	c.deltaModulesRean.Store(0)
}

// Snapshot is a point-in-time copy of the counters. Workers and WallMS
// describe the run as a whole and are filled in by the driver.
type Snapshot struct {
	Workers int     `json:"workers,omitempty"`
	WallMS  float64 `json:"wall_ms,omitempty"`

	Projects       int64   `json:"projects"`
	Parses         int64   `json:"parses"`
	ParseCacheHits int64   `json:"parse_cache_hits"`
	ParseHitRate   float64 `json:"parse_cache_hit_rate"`

	SolveIterations int64 `json:"solve_iterations"`
	TokensDelivered int64 `json:"tokens_delivered"`

	// Incremental split (zero when only from-scratch analyses ran).
	SolveIterationsBase  int64 `json:"solve_iterations_baseline,omitempty"`
	SolveIterationsDelta int64 `json:"solve_iterations_delta,omitempty"`
	TokensDeliveredBase  int64 `json:"tokens_delivered_baseline,omitempty"`
	TokensDeliveredDelta int64 `json:"tokens_delivered_delta,omitempty"`

	// Robustness (zero on a healthy run).
	FaultsContained int64 `json:"faults_contained,omitempty"`
	ModulesDegraded int64 `json:"modules_degraded,omitempty"`

	// Cycle-collapse activity (zero when unification is disabled).
	CyclesCollapsed  int64 `json:"cycles_collapsed,omitempty"`
	VarsUnified      int64 `json:"vars_unified,omitempty"`
	EdgesDeduped     int64 `json:"edges_deduped,omitempty"`
	RedundantSkipped int64 `json:"redundant_deliveries_skipped,omitempty"`

	// Epoch-engine activity. SolverEpochs, SolverCrossShard and
	// SolverSweepVisited are deterministic at every worker count; the phase
	// times (scan+winnow / parallel apply / serial tail / cycle sweeps) are
	// scheduling-dependent diagnostics.
	SolverEpochs       int64   `json:"solver_epochs,omitempty"`
	SolverCrossShard   int64   `json:"solver_cross_shard_deliveries,omitempty"`
	SolverSweepVisited int64   `json:"solver_sweep_visited,omitempty"`
	SolverScanMS       float64 `json:"solver_scan_ms,omitempty"`
	SolverApplyMS      float64 `json:"solver_apply_ms,omitempty"`
	SolverTailMS       float64 `json:"solver_serial_tail_ms,omitempty"`
	SolverSweepMS      float64 `json:"solver_sweep_ms,omitempty"`
	// Always 0, since every cycle sweep runs synchronously; perfbench reads it.
	SolverAsyncSweeps int64 `json:"solver_async_sweeps,omitempty"`
	// Always 0, since every cycle sweep runs synchronously; perfbench reads it.
	SolverSweepOverlapMS float64 `json:"solver_sweep_overlap_ms,omitempty"`

	// Persistent-cache activity (zero when no cache store is attached).
	// CacheBytesWritten is deliberately ungated by benchcheck: outcome
	// records encode wall-clock durations as varints, so it changes between
	// runs of the same code.
	CacheHits         int64 `json:"cache_hits,omitempty"`
	CacheMisses       int64 `json:"cache_misses,omitempty"`
	CacheBytesWritten int64 `json:"cache_bytes_written,omitempty"`
	DeltaModulesRean  int64 `json:"delta_modules_reanalyzed,omitempty"`

	// Phase wall times, and the allocation of each phase that recorded
	// any; a phase whose allocation is not measured is left out.
	PhaseMS         map[string]float64 `json:"phase_ms,omitempty"`
	PhaseAllocBytes map[string]int64   `json:"phase_alloc_bytes,omitempty"`
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Projects:             c.projects.Load(),
		Parses:               c.parses.Load(),
		ParseCacheHits:       c.parseCacheHits.Load(),
		SolveIterations:      c.solveIterations.Load(),
		TokensDelivered:      c.tokensDelivered.Load(),
		SolveIterationsBase:  c.solveIterationsBase.Load(),
		SolveIterationsDelta: c.solveIterationsDelta.Load(),
		TokensDeliveredBase:  c.tokensDeliveredBase.Load(),
		TokensDeliveredDelta: c.tokensDeliveredDelta.Load(),
		FaultsContained:      c.faultsContained.Load(),
		ModulesDegraded:      c.modulesDegraded.Load(),
		CyclesCollapsed:      c.cyclesCollapsed.Load(),
		VarsUnified:          c.varsUnified.Load(),
		EdgesDeduped:         c.edgesDeduped.Load(),
		RedundantSkipped:     c.redundantSkipped.Load(),
		SolverEpochs:         c.solverEpochs.Load(),
		SolverCrossShard:     c.solverCrossShard.Load(),
		SolverSweepVisited:   c.solverSweepVisited.Load(),
		SolverScanMS:         float64(c.solverScanNS.Load()) / 1e6,
		SolverApplyMS:        float64(c.solverApplyNS.Load()) / 1e6,
		SolverTailMS:         float64(c.solverTailNS.Load()) / 1e6,
		SolverSweepMS:        float64(c.solverSweepNS.Load()) / 1e6,
		CacheHits:            c.cacheHits.Load(),
		CacheMisses:          c.cacheMisses.Load(),
		CacheBytesWritten:    c.cacheBytesWritten.Load(),
		DeltaModulesRean:     c.deltaModulesRean.Load(),
		PhaseMS:              map[string]float64{},
	}
	if total := s.Parses + s.ParseCacheHits; total > 0 {
		s.ParseHitRate = float64(s.ParseCacheHits) / float64(total)
	}
	for p := Phase(0); p < numPhases; p++ {
		s.PhaseMS[p.String()] = float64(c.phaseNS[p].Load()) / 1e6
	}
	for p := Phase(0); p < numPhases; p++ {
		if b := c.phaseAllocBytes[p].Load(); b != 0 {
			if s.PhaseAllocBytes == nil {
				s.PhaseAllocBytes = map[string]int64{}
			}
			s.PhaseAllocBytes[p.String()] = b
		}
	}
	return s
}

// Render writes a human-readable report.
func (s Snapshot) Render(w io.Writer) {
	if s.Workers > 0 {
		fmt.Fprintf(w, "workers:            %d\n", s.Workers)
	}
	if s.WallMS > 0 {
		fmt.Fprintf(w, "wall time:          %.1f ms\n", s.WallMS)
	}
	fmt.Fprintf(w, "projects:           %d\n", s.Projects)
	fmt.Fprintf(w, "parses:             %d (cache hits %d, hit rate %.1f%%)\n",
		s.Parses, s.ParseCacheHits, 100*s.ParseHitRate)
	fmt.Fprintf(w, "solve iterations:   %d\n", s.SolveIterations)
	fmt.Fprintf(w, "tokens delivered:   %d\n", s.TokensDelivered)
	if s.SolveIterationsBase+s.SolveIterationsDelta > 0 {
		fmt.Fprintf(w, "  incremental:      baseline %d iters / %d tokens, resumed delta %d iters / %d tokens\n",
			s.SolveIterationsBase, s.TokensDeliveredBase, s.SolveIterationsDelta, s.TokensDeliveredDelta)
	}
	if s.FaultsContained+s.ModulesDegraded > 0 {
		fmt.Fprintf(w, "faults contained:   %d (modules degraded to baseline-only hints: %d)\n",
			s.FaultsContained, s.ModulesDegraded)
	}
	if s.VarsUnified+s.EdgesDeduped+s.RedundantSkipped > 0 {
		fmt.Fprintf(w, "cycle collapse:     %d cycles, %d vars unified, %d edges deduped, %d redundant deliveries skipped\n",
			s.CyclesCollapsed, s.VarsUnified, s.EdgesDeduped, s.RedundantSkipped)
	}
	if s.SolverEpochs > 0 {
		fmt.Fprintf(w, "parallel solver:    %d epochs, %d cross-shard deliveries, %d reps swept, scan %.1f ms / apply %.1f ms / tail %.1f ms / sweep %.1f ms\n",
			s.SolverEpochs, s.SolverCrossShard, s.SolverSweepVisited,
			s.SolverScanMS, s.SolverApplyMS, s.SolverTailMS, s.SolverSweepMS)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		rate := 100 * float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
		fmt.Fprintf(w, "artifact cache:     %d hits / %d misses (%.1f%%), %.1f KB written, %d modules re-analyzed\n",
			s.CacheHits, s.CacheMisses, rate, float64(s.CacheBytesWritten)/1024, s.DeltaModulesRean)
	}
	for p := Phase(0); p < numPhases; p++ {
		fmt.Fprintf(w, "%-9s phase:     %.1f ms", p.String(), s.PhaseMS[p.String()])
		if b, ok := s.PhaseAllocBytes[p.String()]; ok {
			fmt.Fprintf(w, "  (%.1f MB alloc)", float64(b)/(1<<20))
		}
		fmt.Fprintln(w)
	}
}
