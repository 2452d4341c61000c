package static

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/corpus"
)

// condensationUpToReference is the map-based condensationUpTo that the
// counting version replaced, kept as its oracle: one slice per class,
// singletons dropped at the end.
func condensationUpToReference(s *solver, limit Var) [][]Var {
	if s.noUnify {
		return nil
	}
	if int(limit) > s.nVars {
		limit = Var(s.nVars)
	}
	s.collapseAllSCCs()
	byRep := map[Var]int{}
	var groups [][]Var
	for v := Var(0); v < limit; v++ {
		r := s.find(v)
		if gi, ok := byRep[r]; ok {
			groups[gi] = append(groups[gi], v)
		} else {
			byRep[r] = len(groups)
			groups = append(groups, []Var{v})
		}
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// TestCondensationMatchesReference checks condensationUpTo against the
// reference on the baseline solve of every corpus project and of a few
// mega-tier projects, at the generation-time watermark AnalyzeBoth uses
// and at half of it.
func TestCondensationMatchesReference(t *testing.T) {
	benches := corpus.All()
	for _, n := range []int{40, 120, 300} {
		benches = append(benches, corpus.Mega(n))
	}
	groups := 0
	for _, b := range benches {
		a := newAnalyzer(b.Project, Options{Mode: Baseline})
		if err := a.generate(); err != nil {
			t.Fatalf("%s: %v", b.Project.Name, err)
		}
		genVars := Var(a.s.numVars())
		a.s.solve()
		for _, limit := range []Var{genVars, genVars / 2} {
			want := condensationUpToReference(a.s, limit)
			got := a.s.condensationUpTo(limit)
			if !slices.EqualFunc(got, want, slices.Equal[[]Var]) {
				t.Fatalf("%s limit %d: condensation differs from the reference:\n got %s\nwant %s",
					b.Project.Name, limit, summarize(got), summarize(want))
			}
			groups += len(got)
		}
	}
	if groups == 0 {
		t.Fatal("no multi-member class anywhere; the test checked nothing")
	}
}

// summarize prints a condensation's size and first groups.
func summarize(groups [][]Var) string {
	if len(groups) > 3 {
		return fmt.Sprintf("%d groups, first %v", len(groups), groups[:3])
	}
	return fmt.Sprintf("%d groups %v", len(groups), groups)
}
