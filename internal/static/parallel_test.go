package static

import (
	"fmt"
	"math/rand"
	"testing"
)

// workerCounts are the arms every determinism test runs. 0 is the default
// (one worker, like 1); workers=1 matters because it exercises the epoch
// engine's partition/scan/barrier machinery without concurrency, so a
// divergence there is a logic bug rather than a race.
var workerCounts = []int{0, 1, 2, 4, 8}

// TestParallelSolverMatchesSequential is the randomized differential test
// of the epoch engine against the no-unify reference solver (plain FIFO
// propagation, no cycle collapsing): identical random constraint graphs
// with interleaved solves and checkpoints, compared on final sets, every
// checkpoint's frozen views, and trigger deliveries. Effort/structure
// counters are required to be identical across all worker counts (the
// engine is deterministic by construction).
func TestParallelSolverMatchesSequential(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		sq := newReferenceSolver()
		cpsSeq, firedSeq := randomOps(seed, sq, nVars, rounds)

		var refIters, refDelivered int64
		var refStruct StructureStats
		for wi, workers := range workerCounts {
			sp := newSolver()
			sp.configureParallel(workers)
			cpsPar, firedPar := randomOps(seed, sp, nVars, rounds)

			for v := 0; v < nVars; v++ {
				gs := sortedTokens(sq.tokens(Var(v)))
				gp := sortedTokens(sp.tokens(Var(v)))
				if !tokensEqual(gs, gp) {
					t.Fatalf("seed %d workers %d: var %d final sets differ: reference %v, epoch %v",
						seed, workers, v, gs, gp)
				}
				for k := range cpsSeq {
					fs := sortedTokens(sq.tokensAt(cpsSeq[k], Var(v)))
					fp := sortedTokens(sp.tokensAt(cpsPar[k], Var(v)))
					if !tokensEqual(fs, fp) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d frozen views differ: reference %v, epoch %v",
							seed, workers, v, k, fs, fp)
					}
				}
			}
			if len(firedPar) != len(firedSeq) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ: epoch %d pairs, reference %d",
					seed, workers, len(firedPar), len(firedSeq))
			}
			for k, n := range firedPar {
				if n != 1 || firedSeq[k] != 1 {
					t.Fatalf("seed %d workers %d: delivery %v fired %d times (reference %d)",
						seed, workers, k, n, firedSeq[k])
				}
			}

			parIters, parDelivered := sp.stats()
			parStruct := sp.structure()
			if wi == 0 {
				refIters, refDelivered, refStruct = parIters, parDelivered, parStruct
			} else {
				if parIters != refIters || parDelivered != refDelivered {
					t.Fatalf("seed %d workers %d: effort counters differ across worker counts: %d iters / %d tokens vs %d / %d at workers=%d",
						seed, workers, parIters, parDelivered, refIters, refDelivered, workerCounts[0])
				}
				if parStruct != refStruct {
					t.Fatalf("seed %d workers %d: structure counters differ across worker counts: %+v vs %+v at workers=%d",
						seed, workers, parStruct, refStruct, workerCounts[0])
				}
			}
			if st := sp.parallelStats(); st.Epochs == 0 {
				t.Fatalf("seed %d workers %d: epoch engine recorded no epochs — the no-unify pop loop ran instead", seed, workers)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers pins the stronger property the
// epoch pipeline is designed for: not just that every worker count reaches
// the same fixpoint, but that the scheduling-independent parallel
// diagnostics (epochs, cross-shard deliveries, async sweep launches) are
// themselves identical at every worker count — with every epoch forced
// through the goroutine-and-deque path so chunks really are claimed and
// stolen concurrently at workers 2..8, not served by the inline path.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	savedInline := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = savedInline }()

	for seed := int64(0); seed < 6; seed++ {
		var refStats *ParallelSolveStats
		for _, workers := range workerCounts {
			s := newSolver()
			s.configureParallel(workers)
			randomOps(seed, s, 50, 2)
			st := s.parallelStats()
			if refStats == nil {
				refStats = &st
				continue
			}
			if st.Epochs != refStats.Epochs || st.CrossShard != refStats.CrossShard ||
				st.AsyncSweeps != refStats.AsyncSweeps {
				t.Fatalf("seed %d workers %d: scheduling-independent stats differ: %+v vs %+v at workers=%d",
					seed, workers, st, *refStats, workerCounts[0])
			}
		}
	}
}

// TestParallelPipelinePropertyConcurrentMatchesInline is the pipeline
// property test for the split barrier: the parallel apply pass plus staged
// serial tail, run fully concurrently (every epoch on the goroutine path,
// every batched sweep on the concurrent sweep worker), must be
// indistinguishable — results, trigger firings, frozen checkpoint views,
// effort counters, structure counters, and the deterministic parallel
// diagnostics — from the same pipeline applied inline on the solver
// goroutine at workers=1. Under -race this is also the test that drives
// the shard-owned apply workers and the read-only Tarjan sweep against the
// scan/winnow/partition phases they overlap.
func TestParallelPipelinePropertyConcurrentMatchesInline(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	savedInline, savedSweep := inlineFrontierMax, asyncSweepMinFrontier
	defer func() { inlineFrontierMax, asyncSweepMinFrontier = savedInline, savedSweep }()

	totalSweeps := int64(0)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9a7a))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		// Inline arm: one worker, everything on the solver goroutine, but
		// with batched sweeps still routed through the async launch/join
		// machinery so both arms run the same collapse policy.
		asyncSweepMinFrontier = 0
		inlineFrontierMax = 1 << 30
		si := newSolver()
		si.configureParallel(1)
		cpsInline, firedInline := randomOps(seed, si, nVars, rounds)
		inlineIters, inlineDelivered := si.stats()
		inlineStruct, inlineStats := si.structure(), si.parallelStats()

		for _, workers := range []int{4, 8} {
			// Concurrent arm: every epoch through the deque path.
			inlineFrontierMax = 0
			sc := newSolver()
			sc.configureParallel(workers)
			cpsConc, firedConc := randomOps(seed, sc, nVars, rounds)

			for v := 0; v < nVars; v++ {
				if !tokensEqual(sortedTokens(si.tokens(Var(v))), sortedTokens(sc.tokens(Var(v)))) {
					t.Fatalf("seed %d workers %d: var %d final sets differ between inline and concurrent pipeline",
						seed, workers, v)
				}
				for k := range cpsInline {
					if !tokensEqual(sortedTokens(si.tokensAt(cpsInline[k], Var(v))),
						sortedTokens(sc.tokensAt(cpsConc[k], Var(v)))) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d frozen views differ between inline and concurrent pipeline",
							seed, workers, v, k)
					}
				}
			}
			if len(firedConc) != len(firedInline) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ: concurrent %d pairs, inline %d",
					seed, workers, len(firedConc), len(firedInline))
			}
			concIters, concDelivered := sc.stats()
			if concIters != inlineIters || concDelivered != inlineDelivered {
				t.Fatalf("seed %d workers %d: effort counters differ from inline pipeline: %d iters / %d tokens vs %d / %d",
					seed, workers, concIters, concDelivered, inlineIters, inlineDelivered)
			}
			if cs := sc.structure(); cs != inlineStruct {
				t.Fatalf("seed %d workers %d: structure counters differ from inline pipeline: %+v vs %+v",
					seed, workers, cs, inlineStruct)
			}
			concStats := sc.parallelStats()
			if concStats.Epochs != inlineStats.Epochs || concStats.CrossShard != inlineStats.CrossShard ||
				concStats.AsyncSweeps != inlineStats.AsyncSweeps {
				t.Fatalf("seed %d workers %d: deterministic parallel stats differ from inline pipeline: %+v vs %+v",
					seed, workers, concStats, inlineStats)
			}
			totalSweeps += concStats.AsyncSweeps
		}
	}
	if totalSweeps == 0 {
		t.Fatalf("no concurrent cycle sweep ran across %d seeds; the overlap path is untested", seeds)
	}
}

// TestParallelConcurrentScanPath forces every epoch — even one-delivery
// frontiers — through the goroutine-and-deque scan path and re-checks the
// differential against the no-unify reference solver. With -race this is the
// test that actually exercises the Chase-Lev deques and concurrent findRO
// walks; the frontiers of the other tests often fit under inlineFrontierMax.
func TestParallelConcurrentScanPath(t *testing.T) {
	saved := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = saved }()

	for seed := int64(0); seed < 6; seed++ {
		sq := newReferenceSolver()
		_, firedSeq := randomOps(seed, sq, 60, 2)
		for _, workers := range []int{2, 4, 8} {
			sp := newSolver()
			sp.configureParallel(workers)
			_, firedPar := randomOps(seed, sp, 60, 2)
			for v := 0; v < 60; v++ {
				if !tokensEqual(sortedTokens(sq.tokens(Var(v))), sortedTokens(sp.tokens(Var(v)))) {
					t.Fatalf("seed %d workers %d: var %d final sets differ on forced-concurrent path", seed, workers, v)
				}
			}
			if len(firedPar) != len(firedSeq) {
				t.Fatalf("seed %d workers %d: trigger deliveries differ on forced-concurrent path", seed, workers)
			}
		}
	}
}

// TestParallelRollbackWindowFallsBackSequential checks the exact no-unify
// configurations (reference solver, rollback windows) never enter the
// epoch engine even when workers are configured: the dispatch in solve()
// must route them to the pop loop.
func TestParallelRollbackWindowFallsBackSequential(t *testing.T) {
	s := newReferenceSolver()
	s.configureParallel(4)
	randomOps(7, s, 30, 2)
	if st := s.parallelStats(); st.Epochs != 0 {
		t.Fatalf("no-unify solver ran %d epochs; must stay on the pop loop", st.Epochs)
	}
}

// TestAnalyzeParallelMatchesSequentialProject runs the full analysis
// pipeline (not just the bare solver) on the paper's motivating Express
// example at every worker count and requires identical call graphs and
// counters to the default (SolverWorkers 0) run, and the epoch engine to
// have run at every count.
func TestAnalyzeParallelMatchesSequentialProject(t *testing.T) {
	project := motivating()
	ref, err := Analyze(project, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		got, err := Analyze(project, Options{Mode: Baseline, SolverWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Graph.Equal(ref.Graph) {
			t.Fatalf("workers %d: call graph differs from the default run", workers)
		}
		if got.Parallel.Epochs == 0 {
			t.Fatalf("workers %d: the epoch engine ran no epochs", workers)
		}
		if got.SolveIterations != ref.SolveIterations || got.TokensDelivered != ref.TokensDelivered {
			t.Fatalf("workers %d: effort differs: %d iters / %d tokens vs default %d / %d",
				workers, got.SolveIterations, got.TokensDelivered, ref.SolveIterations, ref.TokensDelivered)
		}
		if got.Structure != ref.Structure {
			t.Fatalf("workers %d: structure counters differ: %+v vs %+v", workers, got.Structure, ref.Structure)
		}
	}
}

// BenchmarkSolverParallel measures raw solver throughput per worker count
// on a dense random system (go test -bench SolverParallel -benchtime ...).
func BenchmarkSolverParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			s := newSolver()
			s.configureParallel(workers)
			randomOps(1, s, 400, 3)
		}
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) { run(b, w) })
	}
}
