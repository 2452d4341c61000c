package static

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// workerCounts are the arms every determinism test runs. 0 is the default
// (one worker, like 1); workers=1 matters because it exercises the epoch
// engine's partition/scan/barrier machinery without concurrency, so a
// divergence there is a logic bug rather than a race.
var workerCounts = []int{0, 1, 2, 4, 8}

// TestParallelSolverMatchesSequential is the randomized differential test
// of the epoch engine against the reference solver (plain FIFO propagation
// in solveFIFO, no cycle collapsing): identical random constraint graphs
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

		sq := newSolver()
		cpsSeq, firedSeq := randomOps(seed, sq, (*solver).solveFIFO, nVars, rounds)

		var refIters, refDelivered int64
		var refStruct StructureStats
		for wi, workers := range workerCounts {
			sp := newSolver()
			sp.configureParallel(workers)
			cpsPar, firedPar := randomOps(seed, sp, (*solver).solve, nVars, rounds)

			for v := 0; v < nVars; v++ {
				gs := sortedTokens(sq.tokens(Var(v)))
				gp := sortedTokens(sp.tokens(Var(v)))
				if !tokensEqual(gs, gp) {
					t.Fatalf("seed %d workers %d: var %d final sets differ: reference %v, epoch %v",
						seed, workers, v, gs, gp)
				}
				for k := range cpsSeq {
					fs := cpsSeq[k].tokensAt(Var(v))
					fp := cpsPar[k].tokensAt(Var(v))
					if !tokensEqual(fs, fp) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d sets differ: reference %v, epoch %v",
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
				t.Fatalf("seed %d workers %d: epoch engine recorded no epochs", seed, workers)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers pins the stronger property the
// epoch pipeline is designed for: not just that every worker count reaches
// the same fixpoint, but that the scheduling-independent parallel
// diagnostics (epochs, cross-shard deliveries, representatives swept) are
// themselves identical at every worker count — with every epoch forced
// through the goroutine path so chunks really are claimed concurrently at
// workers 2..8, not served by the inline path.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	savedInline := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = savedInline }()

	for seed := int64(0); seed < 6; seed++ {
		var refStats *ParallelSolveStats
		for _, workers := range workerCounts {
			s := newSolver()
			s.configureParallel(workers)
			randomOps(seed, s, (*solver).solve, 50, 2)
			st := s.parallelStats()
			if refStats == nil {
				refStats = &st
				continue
			}
			if st.Epochs != refStats.Epochs || st.CrossShard != refStats.CrossShard ||
				st.SweepVisited != refStats.SweepVisited {
				t.Fatalf("seed %d workers %d: scheduling-independent stats differ: %+v vs %+v at workers=%d",
					seed, workers, st, *refStats, workerCounts[0])
			}
		}
	}
}

// TestParallelPipelinePropertyConcurrentMatchesInline is the pipeline
// property test for the split barrier: the parallel apply pass plus staged
// serial tail, run fully concurrently (every epoch on the goroutine path),
// must be indistinguishable — results, trigger firings, frozen checkpoint
// views, effort counters, structure counters, and the deterministic parallel
// diagnostics — from the same pipeline applied inline on the solver
// goroutine at workers=1. Under -race this is also the test that drives
// the shard-owned apply workers, with cycle sweeps running between the
// concurrent epochs.
func TestParallelPipelinePropertyConcurrentMatchesInline(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	savedInline := inlineFrontierMax
	defer func() { inlineFrontierMax = savedInline }()

	swept := int64(0)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9a7a))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		// Inline arm: one worker, everything on the solver goroutine.
		inlineFrontierMax = 1 << 30
		si := newSolver()
		si.configureParallel(1)
		cpsInline, firedInline := randomOps(seed, si, (*solver).solve, nVars, rounds)
		inlineIters, inlineDelivered := si.stats()
		inlineStruct, inlineStats := si.structure(), si.parallelStats()

		for _, workers := range []int{4, 8} {
			// Concurrent arm: every epoch through the goroutine path.
			inlineFrontierMax = 0
			sc := newSolver()
			sc.configureParallel(workers)
			cpsConc, firedConc := randomOps(seed, sc, (*solver).solve, nVars, rounds)

			for v := 0; v < nVars; v++ {
				if !tokensEqual(sortedTokens(si.tokens(Var(v))), sortedTokens(sc.tokens(Var(v)))) {
					t.Fatalf("seed %d workers %d: var %d final sets differ between inline and concurrent pipeline",
						seed, workers, v)
				}
				for k := range cpsInline {
					if !tokensEqual(cpsInline[k].tokensAt(Var(v)),
						cpsConc[k].tokensAt(Var(v))) {
						t.Fatalf("seed %d workers %d: var %d checkpoint %d sets differ between inline and concurrent pipeline",
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
				concStats.SweepVisited != inlineStats.SweepVisited {
				t.Fatalf("seed %d workers %d: deterministic parallel stats differ from inline pipeline: %+v vs %+v",
					seed, workers, concStats, inlineStats)
			}
			swept += concStats.SweepVisited
		}
	}
	if swept == 0 {
		t.Fatalf("no cycle sweep visited anything across %d seeds on the concurrent path", seeds)
	}
}

// TestParallelConcurrentScanPath forces every epoch — even one-delivery
// frontiers — through the goroutine scan path and re-checks the
// differential against the FIFO reference solver. With -race this is the
// test that actually exercises the shared chunk cursor and concurrent findRO
// walks; the frontiers of the other tests often fit under inlineFrontierMax.
func TestParallelConcurrentScanPath(t *testing.T) {
	saved := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = saved }()

	for seed := int64(0); seed < 6; seed++ {
		sq := newSolver()
		_, firedSeq := randomOps(seed, sq, (*solver).solveFIFO, 60, 2)
		for _, workers := range []int{2, 4, 8} {
			sp := newSolver()
			sp.configureParallel(workers)
			_, firedPar := randomOps(seed, sp, (*solver).solve, 60, 2)
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

// TestParallelSnapshotForkRunsEpochs forks a solver from a snapshot on the
// forced-concurrent path: the first delta runs through the epoch engine
// with collapsing on, restore returns every variable's token order, edge
// list, trigger count, delivered prefix and the union-find forest to the
// snapshot exactly, and a second delta on the restored solver matches the
// FIFO reference solving base + second delta.
func TestParallelSnapshotForkRunsEpochs(t *testing.T) {
	saved := inlineFrontierMax
	inlineFrontierMax = 0
	defer func() { inlineFrontierMax = saved }()

	type varView struct {
		tokens    []Token
		edges     []Var
		trig      int
		delivered int
	}
	view := func(s *solver) []varView {
		out := make([]varView, s.nVars)
		for v := range out {
			st := s.state(Var(v))
			out[v] = varView{slices.Clone(st.tokens), slices.Clone(st.edges), len(st.triggers), st.delivered}
		}
		return out
	}
	delta := func(s *solver, seed int64, tokBase, nVars int, solve func(*solver)) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 80; i++ {
			if rng.Intn(3) == 0 {
				s.addToken(Var(rng.Intn(nVars)), Token(tokBase+rng.Intn(40)))
			} else {
				s.addEdge(Var(rng.Intn(nVars)), Var(rng.Intn(nVars)))
			}
		}
		solve(s)
	}

	for _, workers := range []int{1, 4} {
		for seed := int64(0); seed < 8; seed++ {
			nVars := 40 + int(seed)
			s := newSolver()
			s.configureParallel(workers)
			_, fired := randomOps(seed, s, (*solver).solve, nVars, 2)
			base, baseParent := view(s), slices.Clone(s.parent)
			baseFired := maps.Clone(fired)
			epochs0 := s.parallelStats().Epochs

			snap := s.snapshot()
			// The first delta also grows the system the restore must drop:
			// fresh variables, and a trigger on a pre-snapshot variable.
			for i := 0; i < 4; i++ {
				nv := s.newVar()
				s.addEdge(Var(i), nv)
				s.addEdge(nv, Var(nVars-1-i))
			}
			s.onToken(Var(1), func(Token) {})
			delta(s, seed+1000, 100, nVars, (*solver).solve)
			if s.parallelStats().Epochs == epochs0 {
				t.Fatalf("workers %d seed %d: the forked delta ran no epochs", workers, seed)
			}
			s.restore(snap)
			got := view(s)
			if len(got) != len(base) {
				t.Fatalf("workers %d seed %d: %d variables after restore, want %d", workers, seed, len(got), len(base))
			}
			for v := range base {
				if !reflect.DeepEqual(got[v], base[v]) {
					t.Fatalf("workers %d seed %d: var %d after restore %+v, want snapshot %+v",
						workers, seed, v, got[v], base[v])
				}
			}
			if !slices.Equal(s.parent, baseParent) {
				t.Fatalf("workers %d seed %d: union-find forest not restored", workers, seed)
			}
			clear(fired)
			maps.Copy(fired, baseFired)

			delta(s, seed+2000, 200, nVars, (*solver).solve)
			ref := newSolver()
			_, firedRef := randomOps(seed, ref, (*solver).solveFIFO, nVars, 2)
			delta(ref, seed+2000, 200, nVars, (*solver).solveFIFO)
			for v := 0; v < nVars; v++ {
				if g, w := sortedTokens(s.tokens(Var(v))), sortedTokens(ref.tokens(Var(v))); !tokensEqual(g, w) {
					t.Fatalf("workers %d seed %d: var %d restored+delta2 %v, reference %v", workers, seed, v, g, w)
				}
			}
			if len(fired) != len(firedRef) {
				t.Fatalf("workers %d seed %d: trigger deliveries %d, reference %d", workers, seed, len(fired), len(firedRef))
			}
			for k, n := range fired {
				if n != 1 || firedRef[k] != 1 {
					t.Fatalf("workers %d seed %d: delivery %v fired %d (reference %d), want exactly once",
						workers, seed, k, n, firedRef[k])
				}
			}
		}
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
			randomOps(1, s, (*solver).solve, 400, 3)
		}
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) { run(b, w) })
	}
}
