package static

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/testgen"
)

// sccComponents is the whole-graph oracle of the cycle sweep: an iterative
// Tarjan pass over every representative among the first n variables, in
// index order, with freshly reset scratch. It returns the multi-member
// components in discovery order without collapsing anything, resolving
// edges through findRO so it can run wherever the rooted sweep runs.
func sccComponents(s *solver, n int, sw *sweepScratch) [][]Var {
	if n == 0 {
		return nil
	}
	if cap(sw.index) < n {
		sw.index = make([]int32, n)
		sw.lowlink = make([]int32, n)
		sw.onStack = make([]bool, n)
	}
	sw.index = sw.index[:n]
	sw.lowlink = sw.lowlink[:n]
	sw.onStack = sw.onStack[:n]
	for i := range sw.index {
		sw.index[i] = 0
		sw.onStack[i] = false
	}
	sw.stack = sw.stack[:0]
	var comps [][]Var
	var next int32 = 1

	for root := 0; root < n; root++ {
		rv := Var(root)
		if s.parent[rv] != rv || sw.index[root] != 0 {
			continue
		}
		sw.frames = append(sw.frames[:0], sweepFrame{v: rv})
		for len(sw.frames) > 0 {
			f := &sw.frames[len(sw.frames)-1]
			v := f.v
			if f.edge == 0 {
				sw.index[v] = next
				sw.lowlink[v] = next
				next++
				sw.stack = append(sw.stack, v)
				sw.onStack[v] = true
			}
			st := s.state(v)
			advanced := false
			for f.edge < len(st.edges) {
				w := s.findRO(st.edges[f.edge])
				f.edge++
				if w == v {
					continue
				}
				if sw.index[w] == 0 {
					sw.frames = append(sw.frames, sweepFrame{v: w})
					advanced = true
					break
				}
				if sw.onStack[w] && sw.index[w] < sw.lowlink[v] {
					sw.lowlink[v] = sw.index[w]
				}
			}
			if advanced {
				continue
			}
			if sw.lowlink[v] == sw.index[v] {
				var comp []Var
				for {
					w := sw.stack[len(sw.stack)-1]
					sw.stack = sw.stack[:len(sw.stack)-1]
					sw.onStack[w] = false
					if comp != nil || w != v {
						comp = append(comp, w)
					}
					if w == v {
						break
					}
				}
				if comp != nil {
					comps = append(comps, comp)
				}
			}
			sw.frames = sw.frames[:len(sw.frames)-1]
			if len(sw.frames) > 0 {
				pf := &sw.frames[len(sw.frames)-1]
				if sw.lowlink[v] < sw.lowlink[pf.v] {
					sw.lowlink[pf.v] = sw.lowlink[v]
				}
			}
		}
	}
	return comps
}

// componentSet canonicalizes components for comparison as sets: members
// sorted within each component, components sorted by their least member.
func componentSet(comps [][]Var) [][]Var {
	out := make([][]Var, len(comps))
	for i, c := range comps {
		out[i] = slices.Clone(c)
		slices.Sort(out[i])
	}
	slices.SortFunc(out, func(a, b []Var) int { return int(a[0]) - int(b[0]) })
	return out
}

// sweepOracleStats counts what withSweepOracle checked.
type sweepOracleStats struct {
	sweeps, rooted, rootedComps int
}

// withSweepOracle runs fn with sweepCheck comparing every sweep against the
// whole-graph oracle. The first sweep of each solver is the whole-graph one;
// the others are rooted, and the stats count those separately. Mismatches
// are reported through t.
func withSweepOracle(t *testing.T, fn func()) sweepOracleStats {
	t.Helper()
	var st sweepOracleStats
	seen := map[*solver]bool{}
	saved := sweepCheck
	sweepCheck = func(s *solver, comps [][]Var) {
		// Sweeps run on their solver's goroutine and solvers here run one at
		// a time, so the counters need no lock.
		st.sweeps++
		if seen[s] {
			st.rooted++
			if len(comps) > 0 {
				st.rootedComps++
			}
		}
		seen[s] = true
		want := componentSet(sccComponents(s, s.nVars, &sweepScratch{}))
		if got := componentSet(comps); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("sweep %d: rooted components %v, whole-graph oracle %v", st.sweeps, got, want)
		}
	}
	defer func() { sweepCheck = saved }()
	fn()
	return st
}

// TestSweepMatchesFullSweep checks every cycle sweep against the
// whole-graph oracle: a sweep rooted at the targets of the edges added since
// the previous one must find exactly the components a pass over every
// representative finds. It runs the static half of the corpus pipeline
// (hints from approximate interpretation, the incremental baseline and
// extended solves, and the forked ablation arm where the pipeline runs it),
// the mega tier at three sizes, the cycle-dense testgen tier (whose rings
// only sweeps collapse), and random systems with every epoch forced onto
// the concurrent scan path.
func TestSweepMatchesFullSweep(t *testing.T) {
	check := func(name string, st sweepOracleStats) {
		t.Helper()
		t.Logf("%s: %d sweeps checked, %d rooted, %d rooted with components", name, st.sweeps, st.rooted, st.rootedComps)
		if st.rooted == 0 || st.rootedComps == 0 {
			t.Errorf("%s: %d sweeps, %d rooted, %d rooted with components; the rooted path is untested",
				name, st.sweeps, st.rooted, st.rootedComps)
		}
	}

	check("corpus", withSweepOracle(t, func() {
		for _, b := range corpus.All() {
			ar, err := approx.Run(b.Project, approx.Options{})
			if err != nil {
				t.Fatalf("%s: approx: %v", b.Project.Name, err)
			}
			opts := Options{Mode: WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()}
			if b.HasDynCG {
				_, _, _, err = AnalyzeBothAndAblation(b.Project, opts)
			} else {
				_, _, err = AnalyzeBoth(b.Project, opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", b.Project.Name, err)
			}
		}
	}))

	for _, n := range []int{40, 120, 300} {
		check(fmt.Sprintf("mega %d", n), withSweepOracle(t, func() {
			if _, err := Analyze(corpus.Mega(n).Project, Options{Mode: Baseline}); err != nil {
				t.Fatal(err)
			}
		}))
	}

	cyclic := testgen.GenCyclicProject(7, 20, 10)
	check("cyclic", withSweepOracle(t, func() {
		p := &modules.Project{Name: "cyclic-tier", Files: cyclic.Files, MainEntries: cyclic.Entries, MainPrefix: "/app"}
		r, err := Analyze(p, Options{Mode: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("cyclic: %d cycles collapsed", r.Structure.CyclesCollapsed)
	}))

	savedInline := inlineFrontierMax
	defer func() { inlineFrontierMax = savedInline }()
	inlineFrontierMax = 0
	check("random", withSweepOracle(t, func() {
		for seed := int64(0); seed < 12; seed++ {
			for _, workers := range []int{1, 4} {
				s := newSolver()
				s.configureParallel(workers)
				randomOps(seed, s, (*solver).solve, 60, 3)
			}
		}
	}))
}

// TestSweepVisitsOnlyWhatChanged pins the saving: after the first sweep, a
// sweep visits the representatives reachable from the new edges' targets,
// not the whole graph.
func TestSweepVisitsOnlyWhatChanged(t *testing.T) {
	s := newSolver()
	const n = 1000
	for i := 0; i < n; i++ {
		s.newVar()
	}
	for i := 0; i+1 < n; i++ {
		s.addEdge(Var(i), Var(i+1))
	}
	s.solve()
	first := s.parallelStats().SweepVisited
	if first != n-1 {
		t.Fatalf("first sweep visited %d representatives, want all %d but the sink", first, n-1)
	}
	s.addEdge(Var(n-1), Var(n-3)) // closes n-3 → n-2 → n-1 → n-3
	s.solve()
	if got := s.parallelStats().SweepVisited - first; got != 3 {
		t.Errorf("rooted sweep visited %d representatives, want the 3 reachable from the new edge", got)
	}
	if s.find(n-3) != s.find(n-1) || s.find(n-2) != s.find(n-1) {
		t.Error("the cycle closed by the new edge was not collapsed")
	}
	s.solve()
	if got := s.parallelStats().SweepVisited - first; got != 3 {
		t.Errorf("a sweep ran on a graph with no new edges (%d visited since the first)", got)
	}
}

// collapsed reports whether a and b share a representative.
func collapsed(s *solver, a, b Var) bool { return s.find(a) == s.find(b) }

// TestSweepCollapsesCycleClosedByTailTrigger closes a cycle with an edge a
// trigger adds in a serial tail, over variables without tokens, after the
// solve's entry sweep and with no periodic sweep due. The next sweep must
// collapse it.
func TestSweepCollapsesCycleClosedByTailTrigger(t *testing.T) {
	s := newSolver()
	src, a, b, c := s.newVar(), s.newVar(), s.newVar(), s.newVar()
	s.addEdge(a, b)
	s.addEdge(b, c)
	s.onToken(src, func(Token) { s.addEdge(c, a) })
	s.addToken(src, 1)
	s.solve()
	if collapsed(s, a, c) {
		t.Fatal("cycle collapsed before the next sweep; the test no longer isolates the sweep")
	}
	s.solve()
	if !collapsed(s, a, b) || !collapsed(s, b, c) {
		t.Error("the cycle closed by a tail trigger was not collapsed by the next sweep")
	}
}

// TestSweepCollapsesCycleClosedBehindDeepFrontier is the deep-frontier
// variant of TestSweepCollapsesCycleClosedByTailTrigger: a batched sweep
// runs with more than a thousand deliveries queued, and a tail trigger
// closes a cycle right after it. The next sweep must collapse the cycle.
func TestSweepCollapsesCycleClosedBehindDeepFrontier(t *testing.T) {
	const deep = 1100
	var depths []int
	saved := sweepCheck
	sweepCheck = func(s *solver, _ [][]Var) { depths = append(depths, len(s.queue)) }
	defer func() { sweepCheck = saved }()

	s := newSolver()
	src, mid, x, a, b := s.newVar(), s.newVar(), s.newVar(), s.newVar(), s.newVar()
	s.addEdge(src, mid)
	s.addEdge(a, b)
	// Epoch 1 delivers src's tokens, queueing one delivery per token on
	// mid; its tail adds src→x, so the periodic sweep due before epoch 2
	// has a root. Epoch 2 delivers mid's tokens; its tail closes
	// a → b → a, after that sweep.
	s.onToken(src, func(Token) { s.addEdge(src, x) })
	s.onToken(mid, func(Token) { s.addEdge(b, a) })
	for i := 0; i < deep; i++ {
		s.addToken(src, Token(i))
	}
	s.collapseAllSCCs() // the first, whole-graph sweep
	s.nextSweep = 1
	depths = depths[:0]
	s.solve()
	if len(depths) < 2 || depths[0] < 1024 {
		t.Fatalf("frontier depths at the sweeps %v, want a sweep behind at least 1024 deliveries and one after it", depths)
	}
	if !collapsed(s, a, b) {
		t.Error("the cycle closed behind a deep frontier was not collapsed by the next sweep")
	}
}

// TestSweepCollapsesCycleClosedAfterRestore closes a cycle after restoring
// a snapshot whose fork recorded (but never swept) a root on the same
// variable: restore must bring back the marks with the list, or the closing
// edge's target would look recorded already and the sweep would skip it.
func TestSweepCollapsesCycleClosedAfterRestore(t *testing.T) {
	s := newSolver()
	a, b, x := s.newVar(), s.newVar(), s.newVar()
	s.addEdge(a, b)
	s.solve()
	snap := s.snapshot()
	s.addEdge(x, a) // the fork records a as a root and is abandoned unswept
	s.restore(snap)
	s.addEdge(b, a)
	s.solve()
	if !collapsed(s, a, b) {
		t.Error("the cycle closed after restore was not collapsed by the next sweep")
	}
}

// TestSweepMergesPendingPushEndpoints pins the in-place read of deferred
// pushes across a cycle sweep. A tail-time trigger adds a→c while a has a
// delivered prefix, so a push task is pending; in the same tail it closes a
// cycle and forces a sweep before the next epoch, so one of the task's
// endpoints is merged away before the scan reads the prefix. In "source",
// a is merged into b, which holds more tokens, so the scan reads b's prefix
// in place; in "pending prefix" that prefix is made of tokens b has not
// delivered yet; in "destination" only c is merged, into d; in "both" each
// endpoint is. Every variable's set and every trigger firing must match the
// FIFO reference solver, at one worker and four, with every epoch on the
// concurrent scan path.
func TestSweepMergesPendingPushEndpoints(t *testing.T) {
	savedInline := inlineFrontierMax
	defer func() { inlineFrontierMax = savedInline }()
	inlineFrontierMax = 0

	type system struct {
		src, a, b, c, d Var
	}
	cases := []struct {
		name string
		// build adds the base constraints; tail runs inside the src
		// trigger, after a→c has been added.
		build    func(s *solver, x system)
		tail     func(s *solver, x system)
		from, to bool // which endpoints must be merged away
	}{
		{
			name: "source",
			build: func(s *solver, x system) {
				for tok := Token(2); tok <= 4; tok++ {
					s.addToken(x.b, tok)
				}
			},
			tail: func(s *solver, x system) {
				s.addEdge(x.a, x.b)
				s.addEdge(x.b, x.a)
			},
			from: true,
		},
		{
			name:  "pending prefix",
			build: func(s *solver, x system) {},
			tail: func(s *solver, x system) {
				for tok := Token(5); tok <= 9; tok++ {
					s.addToken(x.b, tok)
				}
				s.addEdge(x.a, x.b)
				s.addEdge(x.b, x.a)
			},
			from: true,
		},
		{
			name: "destination",
			build: func(s *solver, x system) {
				s.addToken(x.d, 2)
				s.addToken(x.d, 3)
			},
			tail: func(s *solver, x system) {
				s.addEdge(x.c, x.d)
				s.addEdge(x.d, x.c)
			},
			to: true,
		},
		{
			name: "both",
			build: func(s *solver, x system) {
				for tok := Token(2); tok <= 4; tok++ {
					s.addToken(x.b, tok)
				}
				s.addToken(x.d, 5)
				s.addToken(x.d, 6)
			},
			tail: func(s *solver, x system) {
				s.addEdge(x.a, x.b)
				s.addEdge(x.b, x.a)
				s.addEdge(x.c, x.d)
				s.addEdge(x.d, x.c)
			},
			from: true,
			to:   true,
		},
	}

	run := func(s *solver, tc int, solve func(*solver)) (system, map[[2]int]int) {
		x := system{s.newVar(), s.newVar(), s.newVar(), s.newVar(), s.newVar()}
		fired := map[[2]int]int{}
		for _, v := range []Var{x.a, x.b, x.c, x.d} {
			s.onToken(v, func(t Token) { fired[[2]int{int(v), int(t)}]++ })
		}
		s.addToken(x.a, 1)
		cases[tc].build(s, x)
		s.onToken(x.src, func(Token) {
			s.addEdge(x.a, x.c)
			cases[tc].tail(s, x)
			s.nextSweep = s.iterations // sweep before the next epoch
		})
		s.addToken(x.src, 0)
		solve(s)
		return x, fired
	}

	for tc, c := range cases {
		ref := newSolver()
		xr, firedRef := run(ref, tc, (*solver).solveFIFO)
		for _, workers := range []int{1, 4} {
			// Every pending push whose endpoint a sweep collapses; the
			// variables are checked once the collapses are done.
			var fromHit, toHit []Var
			saved := sweepCheck
			sweepCheck = func(s *solver, comps [][]Var) {
				for _, comp := range comps {
					for _, tk := range s.par.pushTasks {
						if slices.Contains(comp, tk.from) && slices.Contains(comp, tk.to) {
							continue // a self-push once collapsed; partition drops it
						}
						if slices.Contains(comp, tk.from) {
							fromHit = append(fromHit, tk.from)
						}
						if slices.Contains(comp, tk.to) {
							toHit = append(toHit, tk.to)
						}
					}
				}
			}
			s := newSolver()
			s.configureParallel(workers)
			x, fired := run(s, tc, (*solver).solve)
			sweepCheck = saved

			if c.from && !(slices.Contains(fromHit, x.a) && s.find(x.a) != x.a) {
				t.Errorf("%s workers %d: no sweep merged the pending push's source away (collapsed sources %v)", c.name, workers, fromHit)
			}
			if c.to && !(slices.Contains(toHit, x.c) && s.find(x.c) != x.c) {
				t.Errorf("%s workers %d: no sweep merged the pending push's destination away (collapsed destinations %v)", c.name, workers, toHit)
			}
			for _, pair := range [][2]Var{{x.a, xr.a}, {x.b, xr.b}, {x.c, xr.c}, {x.d, xr.d}} {
				got, want := sortedTokens(s.tokens(pair[0])), sortedTokens(ref.tokens(pair[1]))
				if !tokensEqual(got, want) {
					t.Errorf("%s workers %d: var %d holds %v, reference %v", c.name, workers, pair[0], got, want)
				}
			}
			if !maps.Equal(fired, firedRef) {
				t.Errorf("%s workers %d: trigger firings %v, reference %v", c.name, workers, fired, firedRef)
			}
			for k, n := range fired {
				if n != 1 {
					t.Errorf("%s workers %d: trigger firing %v ran %d times", c.name, workers, k, n)
				}
			}
		}
	}
}
