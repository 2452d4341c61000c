package static

import "testing"

// TestSolverSmallSetSpill drives token and edge sets across the
// smallSetMax threshold and checks deduplication keeps working after the
// linear-scan representation spills to a map.
func TestSolverSmallSetSpill(t *testing.T) {
	s := newSolver()
	v := s.newVar()
	n := 3*smallSetMax + 5
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s.addToken(v, Token(i))
		}
	}
	if got := s.size(v); got != n {
		t.Fatalf("size = %d, want %d (duplicates leaked past the spill)", got, n)
	}
	seen := map[Token]bool{}
	for _, tok := range s.tokens(v) {
		if seen[tok] {
			t.Fatalf("token %d appears twice", tok)
		}
		seen[tok] = true
	}

	// Edge set: adding the same edges repeatedly must not duplicate
	// propagation targets.
	sinks := make([]Var, n)
	for i := range sinks {
		sinks[i] = s.newVar()
	}
	for round := 0; round < 3; round++ {
		for _, sink := range sinks {
			s.addEdge(v, sink)
		}
	}
	s.solve()
	for _, sink := range sinks {
		if got := s.size(sink); got != n {
			t.Fatalf("sink size = %d, want %d", got, n)
		}
	}
}

// TestSolverQueueReuse checks that interleaved solve rounds (as hint
// injection does: constraints added after a first fixpoint) still deliver
// every token exactly once per trigger.
func TestSolverQueueReuse(t *testing.T) {
	const first = 2048 // deliveries in the first round
	s := newSolver()
	a, b := s.newVar(), s.newVar()
	s.addEdge(a, b)
	fired := map[Token]int{}
	s.onToken(b, func(tok Token) { fired[tok]++ })
	for i := 0; i < first; i++ {
		s.addToken(a, Token(i))
	}
	s.solve()
	// Second round on a drained queue.
	for i := first; i < first+10; i++ {
		s.addToken(a, Token(i))
	}
	s.solve()
	if len(fired) != first+10 {
		t.Fatalf("trigger saw %d tokens, want %d", len(fired), first+10)
	}
	for tok, n := range fired {
		if n != 1 {
			t.Fatalf("token %d fired %d times", tok, n)
		}
	}
}

// TestSolverDeepChain propagates tokens down a long edge chain — the shape
// that made the former queue[1:] head pop quadratic.
func TestSolverDeepChain(t *testing.T) {
	const depth = 500
	s := newSolver()
	vars := make([]Var, depth)
	for i := range vars {
		vars[i] = s.newVar()
	}
	for i := 0; i+1 < depth; i++ {
		s.addEdge(vars[i], vars[i+1])
	}
	for k := 0; k < 3; k++ {
		s.addToken(vars[0], Token(k))
	}
	s.solve()
	if got := s.size(vars[depth-1]); got != 3 {
		t.Fatalf("tail received %d tokens, want 3", got)
	}
	iters, delivered := s.stats()
	if iters == 0 || delivered == 0 {
		t.Fatalf("stats not recorded: iters=%d delivered=%d", iters, delivered)
	}
}
