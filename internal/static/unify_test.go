package static

import (
	"math/rand"
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

// randomOps drives one engine through r rounds of randomized constraint
// additions with a solve and checkpoint after each round, mirroring how
// the analysis interleaves injection and solving. Triggers are attached to
// every third variable and themselves add constraints when they fire (as
// call-resolution triggers do), with the added constraint a deterministic
// function of (variable, token) so both engines grow identically. Returns
// the per-round checkpoints and the trigger fire counts.
func randomOps(seed int64, s *solver, nVars, rounds int) ([]*checkpoint, map[fireKey]int) {
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
		ops := 60 + rng.Intn(120)
		for i := 0; i < ops; i++ {
			if rng.Intn(3) == 0 {
				s.addToken(vars[rng.Intn(nVars)], Token(rng.Intn(40)))
			} else {
				s.addEdge(vars[rng.Intn(nVars)], vars[rng.Intn(nVars)])
			}
		}
		s.solve()
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
func TestUnifyingSolverMatchesReference(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 20 + rng.Intn(60)
		rounds := 1 + rng.Intn(3)

		su := newSolver()
		sr := newReferenceSolver()
		cpsU, firedU := randomOps(seed, su, nVars, rounds)
		cpsR, firedR := randomOps(seed, sr, nVars, rounds)

		for v := 0; v < nVars; v++ {
			gu := sortedTokens(su.tokens(Var(v)))
			gr := sortedTokens(sr.tokens(Var(v)))
			if !tokensEqual(gu, gr) {
				t.Fatalf("seed %d: var %d final sets differ: unifying %v, reference %v", seed, v, gu, gr)
			}
			for k := range cpsU {
				fu := cpsU[k].tokensAt(Var(v))
				fr := cpsR[k].tokensAt(Var(v))
				if !tokensEqual(fu, fr) {
					t.Fatalf("seed %d: var %d checkpoint %d sets differ: unifying %v, reference %v",
						seed, v, k, fu, fr)
				}
			}
		}
		if len(firedU) != len(firedR) {
			t.Fatalf("seed %d: trigger deliveries differ: unifying %d pairs, reference %d", seed, len(firedU), len(firedR))
		}
		for k, n := range firedU {
			if n != 1 {
				t.Fatalf("seed %d: trigger on var %d fired %d times for token %d", seed, k.v, n, k.t)
			}
			if firedR[k] != 1 {
				t.Fatalf("seed %d: reference missed delivery %v", seed, k)
			}
		}
	}
}

// TestSolverRollbackRestoresFixpoint drives the rollback window the
// multi-variant analysis uses: solve a random base system, open a rollback
// point, solve a first delta, roll back, and check (a) every set returned
// to its base fixpoint and (b) solving a second, different delta on the
// rolled-back state matches a fresh engine that solved base + second delta
// from scratch — including the re-firing of base-registered triggers for
// the second delta's tokens.
func TestSolverRollbackRestoresFixpoint(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := newSolver()
		nVars := 30 + int(seed)
		cps, fired := randomOps(seed, s, nVars, 2)
		base := make([][]Token, nVars)
		for v := 0; v < nVars; v++ {
			base[v] = sortedTokens(s.tokens(Var(v)))
		}
		baseFired := map[fireKey]int{}
		for k, n := range fired {
			baseFired[k] = n
		}

		rp := s.rollbackPoint()
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
		s.rollbackTo(rp)
		for v := 0; v < nVars; v++ {
			if got := sortedTokens(s.tokens(Var(v))); !tokensEqual(got, base[v]) {
				t.Fatalf("seed %d: var %d after rollback %v, want base %v", seed, v, got, base[v])
			}
			if cp := cps[len(cps)-1]; !tokensEqual(cp.tokensAt(Var(v)), base[v]) {
				t.Fatalf("seed %d: var %d checkpoint view disturbed by rollback", seed, v)
			}
		}
		// The first delta's trigger firings are rolled back too: restore the
		// observer map to its base contents before the second delta.
		for k := range fired {
			delete(fired, k)
		}
		for k, n := range baseFired {
			fired[k] = n
		}

		// Second delta on the rolled-back engine vs. a fresh engine solving
		// base + second delta. The fresh engine runs with unification (the
		// rolled-back one is pinned in no-unify mode) — results must agree
		// regardless.
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
		_, firedF := randomOps(seed, sf, nVars, 2)
		applyDelta2(sf, nVars)

		for v := 0; v < nVars; v++ {
			got := sortedTokens(s.tokens(Var(v)))
			want := sortedTokens(sf.tokens(Var(v)))
			if !tokensEqual(got, want) {
				t.Fatalf("seed %d: var %d rolled-back+delta2 %v, fresh %v", seed, v, got, want)
			}
		}
		if len(fired) != len(firedF) {
			t.Fatalf("seed %d: trigger deliveries differ after rollback: %d vs fresh %d", seed, len(fired), len(firedF))
		}
		for k, n := range fired {
			if n != 1 || firedF[k] != 1 {
				t.Fatalf("seed %d: delivery %v fired %d (fresh %d), want exactly once", seed, k, n, firedF[k])
			}
		}
	}
}

// TestAblationArmMatchesFromScratch checks the rolled-back third phase of
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
			t.Errorf("%s: ablation call graphs differ (from-scratch %d edges, rolled-back %d)",
				b.Project.Name, abl1.Graph.NumEdges(), abl2.Graph.NumEdges())
		}
		if m1, m2 := abl1.Metrics(), abl2.Metrics(); m1 != m2 {
			t.Errorf("%s: ablation metrics differ: from-scratch %v, rolled-back %v", b.Project.Name, m1, m2)
		}
		if abl1.NumVars != abl2.NumVars || abl1.NumTokens != abl2.NumTokens {
			t.Errorf("%s: ablation system size differs: from-scratch %d vars/%d tokens, rolled-back %d/%d",
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
