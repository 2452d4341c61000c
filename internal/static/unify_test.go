package static

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
)

// sortedTokens returns a sorted copy of a token slice, for set comparison
// between engines that may process (and therefore order) tokens differently.
func sortedTokens(ts []Token) []Token {
	out := append([]Token(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkpoint is a copy of every variable's sorted set at a drained
// fixpoint, so a test can compare two solvers at the same point of a run
// after both have moved on.
type checkpoint struct {
	sets [][]Token
}

// checkpoint copies each variable's sorted set. The queue must be drained.
func (s *solver) checkpoint() *checkpoint {
	cp := &checkpoint{sets: make([][]Token, s.nVars)}
	for v := range cp.sets {
		cp.sets[v] = sortedTokens(s.tokens(Var(v)))
	}
	return cp
}

// tokensAt returns the sorted members of ⟦v⟧ as of cp. Variables allocated
// after cp read as empty.
func (cp *checkpoint) tokensAt(v Var) []Token {
	if int(v) >= len(cp.sets) {
		return nil
	}
	return cp.sets[v]
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fireKey identifies one (trigger variable, token) delivery to a trigger.
type fireKey struct {
	v int
	t Token
}

// opsShape sizes the rounds of randomShapedOps: each round adds opsMin +
// [0, opsSpan) random constraints, seeding tokens drawn from [0, tokens).
type opsShape struct{ opsMin, opsSpan, tokens int }

// randomOps drives one engine through r rounds of randomized constraint
// additions with a solve step and checkpoint after each round, mirroring
// how the analysis interleaves injection and solving. solve is the engine's
// propagation loop: (*solver).solve, or (*solver).solveFIFO for the
// reference. Triggers are attached to
// every third variable and themselves add constraints when they fire (as
// call-resolution triggers do), with the added constraint a deterministic
// function of (variable, token) so both engines grow identically. Returns
// the per-round checkpoints and the trigger fire counts.
func randomOps(seed int64, s *solver, solve func(*solver), nVars, rounds int) ([]*checkpoint, map[fireKey]int) {
	return randomShapedOps(seed, s, solve, nVars, rounds, opsShape{60, 120, 40})
}

// randomShapedOps is randomOps with the round size and token range given.
func randomShapedOps(seed int64, s *solver, solve func(*solver), nVars, rounds int, shape opsShape) ([]*checkpoint, map[fireKey]int) {
	rng := rand.New(rand.NewSource(seed))
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.newVar()
	}
	fired := map[fireKey]int{}
	for i := 0; i < nVars; i += 3 {
		i := i
		s.onToken(vars[i], func(tok Token) {
			fired[fireKey{i, tok}]++
			if int(tok)%3 == 0 {
				s.addEdge(vars[(i*7+int(tok))%nVars], vars[(i*13+int(tok)*5)%nVars])
			}
			if int(tok)%5 == 0 && int(tok) < 1000 {
				// Cap the cascade: trigger-minted tokens (≥1000) must not
				// mint further tokens, or the system has no finite fixpoint.
				s.addToken(vars[(i+int(tok))%nVars], Token(int(tok)+1000))
			}
		})
	}
	var cps []*checkpoint
	for r := 0; r < rounds; r++ {
		ops := shape.opsMin + rng.Intn(shape.opsSpan)
		for i := 0; i < ops; i++ {
			if rng.Intn(3) == 0 {
				s.addToken(vars[rng.Intn(nVars)], Token(rng.Intn(shape.tokens)))
			} else {
				s.addEdge(vars[rng.Intn(nVars)], vars[rng.Intn(nVars)])
			}
		}
		solve(s)
		cps = append(cps, s.checkpoint())
	}
	return cps, fired
}

// TestUnifyingSolverMatchesReference is the randomized differential test of
// the cycle-collapsing engine against the no-unification reference solver:
// identical random constraint graphs (dense enough to force many cycles),
// with checkpoints taken at every intermediate fixpoint. Final sets, every
// checkpoint's frozen views, and trigger deliveries (exactly once per
// (trigger, token), even when distinct cycle members carry triggers) must
// all agree.
//
// Most collapses happen at solve-entry sweeps, where nothing is pending. The
// larger arm grows systems whose cycles close mid-solve, so periodic sweeps
// merge variables with live triggers and deferred pushes; it runs at four
// workers with every epoch on the concurrent path, and counts those
// mid-solve collapses to keep the merge path exercised.
func TestUnifyingSolverMatchesReference(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)
		matchReference(t, fmt.Sprintf("seed %d", seed), seed, newSolver(), (*solver).solve, nVars, rounds, opsShape{60, 120, 40})
	}

	savedInline, savedCheck := inlineFrontierMax, sweepCheck
	defer func() { inlineFrontierMax, sweepCheck = savedInline, savedCheck }()
	inlineFrontierMax = 0
	var entry int64
	midSolve := 0
	sweepCheck = func(s *solver, comps [][]Var) {
		if s.iterations > entry {
			midSolve += len(comps)
		}
	}
	solve := func(s *solver) {
		entry = s.iterations
		s.solve()
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 200 + rng.Intn(200)
		su := newSolver()
		su.configureParallel(4)
		matchReference(t, fmt.Sprintf("large seed %d", seed), seed, su, solve, nVars, 3, opsShape{150, 300, 100})
	}
	t.Logf("large arm: %d components collapsed mid-solve", midSolve)
	if midSolve < 50 {
		t.Errorf("large arm collapsed %d components mid-solve, want at least 50; the merge path under live triggers is untested", midSolve)
	}
}

// matchReference runs su with solve and a fresh reference solver through
// the same random rounds and compares them (see
// TestUnifyingSolverMatchesReference).
func matchReference(t *testing.T, name string, seed int64, su *solver, solve func(*solver), nVars, rounds int, shape opsShape) {
	t.Helper()
	sr := newSolver()
	cpsU, firedU := randomShapedOps(seed, su, solve, nVars, rounds, shape)
	cpsR, firedR := randomShapedOps(seed, sr, (*solver).solveFIFO, nVars, rounds, shape)

	for v := 0; v < nVars; v++ {
		gu := sortedTokens(su.tokens(Var(v)))
		gr := sortedTokens(sr.tokens(Var(v)))
		if !tokensEqual(gu, gr) {
			t.Fatalf("%s: var %d final sets differ: unifying %v, reference %v", name, v, gu, gr)
		}
		for k := range cpsU {
			fu := cpsU[k].tokensAt(Var(v))
			fr := cpsR[k].tokensAt(Var(v))
			if !tokensEqual(fu, fr) {
				t.Fatalf("%s: var %d checkpoint %d sets differ: unifying %v, reference %v",
					name, v, k, fu, fr)
			}
		}
	}
	if len(firedU) != len(firedR) {
		t.Fatalf("%s: trigger deliveries differ: unifying %d pairs, reference %d", name, len(firedU), len(firedR))
	}
	for k, n := range firedU {
		if n != 1 {
			t.Fatalf("%s: trigger on var %d fired %d times for token %d", name, k.v, n, k.t)
		}
		if firedR[k] != 1 {
			t.Fatalf("%s: reference missed delivery %v", name, k)
		}
	}
}

// TestSolverSnapshotRestoresFixpoint drives the fork the multi-variant
// analysis uses: solve a random base system, snapshot it, solve a first
// delta, restore, and check (a) every set returned to its base fixpoint and
// (b) solving a second, different delta on the restored state matches a
// fresh engine that solved base + second delta from scratch — including the
// re-firing of base-registered triggers for the second delta's tokens.
func TestSolverSnapshotRestoresFixpoint(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := newSolver()
		nVars := 30 + int(seed)
		cps, fired := randomOps(seed, s, (*solver).solve, nVars, 2)
		base := make([][]Token, nVars)
		for v := 0; v < nVars; v++ {
			base[v] = sortedTokens(s.tokens(Var(v)))
		}
		baseFired := map[fireKey]int{}
		for k, n := range fired {
			baseFired[k] = n
		}

		// An edge between fresh variables without tokens leaves every set
		// as it is but records a sweep root the snapshot must carry.
		s.addEdge(s.newVar(), s.newVar())
		swept, roots := s.swept, slices.Clone(s.sweepRoots)
		if !swept || len(roots) == 0 {
			t.Fatalf("seed %d: no recorded sweep roots before the snapshot", seed)
		}
		snap := s.snapshot()
		// First delta: more random constraints on top.
		rng := rand.New(rand.NewSource(seed + 1000))
		for i := 0; i < 80; i++ {
			if rng.Intn(3) == 0 {
				s.addToken(Var(rng.Intn(nVars)), Token(100+rng.Intn(40)))
			} else {
				s.addEdge(Var(rng.Intn(nVars)), Var(rng.Intn(nVars)))
			}
		}
		s.solve()
		s.restore(snap)
		if s.swept != swept || !slices.Equal(s.sweepRoots, roots) {
			t.Fatalf("seed %d: sweep roots after restore %v (swept %v), want %v (swept %v)",
				seed, s.sweepRoots, s.swept, roots, swept)
		}
		for v := 0; v < s.nVars; v++ {
			if marked := v < len(s.sweepMark) && s.sweepMark[v]; marked != slices.Contains(roots, Var(v)) {
				t.Fatalf("seed %d: var %d sweep mark %v after restore, want %v", seed, v, marked, !marked)
			}
		}
		for v := 0; v < nVars; v++ {
			if got := sortedTokens(s.tokens(Var(v))); !tokensEqual(got, base[v]) {
				t.Fatalf("seed %d: var %d after restore %v, want base %v", seed, v, got, base[v])
			}
			if cp := cps[len(cps)-1]; !tokensEqual(cp.tokensAt(Var(v)), base[v]) {
				t.Fatalf("seed %d: var %d checkpoint view disturbed by restore", seed, v)
			}
		}
		// The first delta's trigger firings are discarded too: reset the
		// observer map to its base contents before the second delta.
		for k := range fired {
			delete(fired, k)
		}
		for k, n := range baseFired {
			fired[k] = n
		}

		// Second delta on the restored engine vs. a fresh engine solving
		// base + second delta.
		applyDelta2 := func(s2 *solver, n int) {
			rng2 := rand.New(rand.NewSource(seed + 2000))
			for i := 0; i < 80; i++ {
				if rng2.Intn(3) == 0 {
					s2.addToken(Var(rng2.Intn(n)), Token(200+rng2.Intn(40)))
				} else {
					s2.addEdge(Var(rng2.Intn(n)), Var(rng2.Intn(n)))
				}
			}
			s2.solve()
		}
		applyDelta2(s, nVars)

		sf := newSolver()
		_, firedF := randomOps(seed, sf, (*solver).solve, nVars, 2)
		applyDelta2(sf, nVars)

		for v := 0; v < nVars; v++ {
			got := sortedTokens(s.tokens(Var(v)))
			want := sortedTokens(sf.tokens(Var(v)))
			if !tokensEqual(got, want) {
				t.Fatalf("seed %d: var %d restored+delta2 %v, fresh %v", seed, v, got, want)
			}
		}
		if len(fired) != len(firedF) {
			t.Fatalf("seed %d: trigger deliveries differ after restore: %d vs fresh %d", seed, len(fired), len(firedF))
		}
		for k, n := range fired {
			if n != 1 || firedF[k] != 1 {
				t.Fatalf("seed %d: delivery %v fired %d (fresh %d), want exactly once", seed, k, n, firedF[k])
			}
		}
	}
}

// TestAblationArmMatchesFromScratch checks the forked third phase of
// AnalyzeBothAndAblation against a from-scratch name-only analysis on every
// write-hint benchmark of the dynamic-CG subset (the projects whose
// ablation arm actually differs from the relational one), and that the
// baseline and extended arms are not disturbed by sharing a solver with it.
func TestAblationArmMatchesFromScratch(t *testing.T) {
	checked := 0
	for _, b := range corpus.WithDynCG() {
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", b.Project.Name, err)
		}
		if !WriteHintsApply(ar.Hints) {
			continue
		}
		opts := Options{Mode: WithHints, Hints: ar.Hints}
		base2, ext2, abl2, err := AnalyzeBothAndAblation(b.Project, opts)
		if err != nil {
			t.Fatalf("%s: AnalyzeBothAndAblation: %v", b.Project.Name, err)
		}
		abl1, err := Analyze(b.Project, Options{Mode: AblationNameOnly, Hints: ar.Hints})
		if err != nil {
			t.Fatalf("%s: from-scratch ablation: %v", b.Project.Name, err)
		}
		if !abl1.Graph.Equal(abl2.Graph) {
			t.Errorf("%s: ablation call graphs differ (from-scratch %d edges, forked %d)",
				b.Project.Name, abl1.Graph.NumEdges(), abl2.Graph.NumEdges())
		}
		if m1, m2 := abl1.Metrics(), abl2.Metrics(); m1 != m2 {
			t.Errorf("%s: ablation metrics differ: from-scratch %v, forked %v", b.Project.Name, m1, m2)
		}
		if abl1.NumVars != abl2.NumVars || abl1.NumTokens != abl2.NumTokens {
			t.Errorf("%s: ablation system size differs: from-scratch %d vars/%d tokens, forked %d/%d",
				b.Project.Name, abl1.NumVars, abl1.NumTokens, abl2.NumVars, abl2.NumTokens)
		}
		base1, err := Analyze(b.Project, Options{Mode: Baseline})
		if err != nil {
			t.Fatalf("%s: baseline: %v", b.Project.Name, err)
		}
		ext1, err := Analyze(b.Project, opts)
		if err != nil {
			t.Fatalf("%s: extended: %v", b.Project.Name, err)
		}
		if !base1.Graph.Equal(base2.Graph) || !ext1.Graph.Equal(ext2.Graph) {
			t.Errorf("%s: baseline/extended arms disturbed by the ablation phase", b.Project.Name)
		}
		checked++
		if testing.Short() && checked >= 3 {
			return
		}
	}
	if checked == 0 {
		t.Fatal("no write-hint benchmark in the dynamic-CG subset; the test checked nothing")
	}
}

// TestAblationForkLeavesArmsUnchanged checks that asking for the ablation
// arm does not change the other two: on every write-hint benchmark of the
// dynamic-CG subset, the baseline and extended results of
// AnalyzeBothAndAblation equal those of AnalyzeBoth — graphs, system size,
// effort, structure and the deterministic epoch-engine counters.
func TestAblationForkLeavesArmsUnchanged(t *testing.T) {
	same := func(name, arm string, want, got *Result) {
		t.Helper()
		if !want.Graph.Equal(got.Graph) {
			t.Errorf("%s: %s call graphs differ", name, arm)
		}
		type counters struct {
			vars, tokens         int
			iters, delivered     int64
			structure            StructureStats
			epochs, cross, swept int64
		}
		of := func(r *Result) counters {
			return counters{r.NumVars, r.NumTokens, r.SolveIterations, r.TokensDelivered, r.Structure,
				r.Parallel.Epochs, r.Parallel.CrossShard, r.Parallel.SweepVisited}
		}
		if w, g := of(want), of(got); w != g {
			t.Errorf("%s: %s counters differ:\n AnalyzeBoth            %+v\n AnalyzeBothAndAblation %+v", name, arm, w, g)
		}
	}
	checked := 0
	for _, b := range corpus.WithDynCG() {
		ar, err := approx.Run(b.Project, approx.Options{})
		if err != nil {
			t.Fatalf("%s: approx: %v", b.Project.Name, err)
		}
		if !WriteHintsApply(ar.Hints) {
			continue
		}
		opts := Options{Mode: WithHints, Hints: ar.Hints}
		base1, ext1, err := AnalyzeBoth(b.Project, opts)
		if err != nil {
			t.Fatalf("%s: AnalyzeBoth: %v", b.Project.Name, err)
		}
		base2, ext2, _, err := AnalyzeBothAndAblation(b.Project, opts)
		if err != nil {
			t.Fatalf("%s: AnalyzeBothAndAblation: %v", b.Project.Name, err)
		}
		same(b.Project.Name, "baseline", base1, base2)
		same(b.Project.Name, "extended", ext1, ext2)
		checked++
	}
	if checked == 0 {
		t.Fatal("no write-hint benchmark in the dynamic-CG subset; the test checked nothing")
	}
}
