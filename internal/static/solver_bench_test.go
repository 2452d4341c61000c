package static

import (
	"fmt"
	"testing"
)

// BenchmarkSolverPropagation measures fixpoint propagation over a deep edge
// chain with fan-out — the worst case for the former O(n) queue head pop
// (every pop shifted the whole remaining queue) and the per-variable
// map-based membership sets.
func BenchmarkSolverPropagation(b *testing.B) {
	const (
		depth  = 2048
		tokens = 8
		fanOut = 4
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSolver()
		vars := make([]Var, depth)
		for j := range vars {
			vars[j] = s.newVar()
		}
		// Chain with periodic fan-out back into later links, so the queue
		// stays populated the way real constraint systems keep it.
		for j := 0; j+1 < depth; j++ {
			s.addEdge(vars[j], vars[j+1])
			if j%64 == 0 {
				for k := 1; k <= fanOut && j+k*7 < depth; k++ {
					s.addEdge(vars[j], vars[j+k*7])
				}
			}
		}
		for k := 0; k < tokens; k++ {
			s.addToken(vars[0], Token(k))
		}
		s.solve()
		if s.size(vars[depth-1]) != tokens {
			b.Fatal("propagation incomplete")
		}
	}
}

// BenchmarkSolverWideSets measures membership-heavy workloads: many tokens
// flowing into shared sinks, exercising the small-set → map spill path.
func BenchmarkSolverWideSets(b *testing.B) {
	const (
		sources = 64
		sinks   = 16
		tokens  = 64
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSolver()
		src := make([]Var, sources)
		for j := range src {
			src[j] = s.newVar()
		}
		snk := make([]Var, sinks)
		for j := range snk {
			snk[j] = s.newVar()
		}
		for j, v := range src {
			for k := 0; k < tokens; k++ {
				s.addToken(v, Token((j*tokens+k)%256))
			}
			for _, w := range snk {
				s.addEdge(v, w)
			}
		}
		s.solve()
	}
}

// BenchmarkSolverCycles measures the cycle-collapsing engine on dense
// cyclic constraint graphs: rings of varying size, each seeded with tokens
// and cross-linked to the next ring, so every token orbits until the cycle
// is detected and unified. The fifo arms run the same shapes through the
// FIFO reference loop, which never collapses, to show the collapse win.
func BenchmarkSolverCycles(b *testing.B) {
	shapes := []struct {
		name   string
		size   int // variables per ring
		count  int // rings
		tokens int // tokens seeded per ring
	}{
		{"size=4/rings=256", 4, 256, 8},
		{"size=32/rings=32", 32, 32, 8},
		{"size=256/rings=4", 256, 4, 8},
	}
	for _, sh := range shapes {
		sh := sh
		run := func(b *testing.B, mk func() *solver, solve func(*solver)) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := mk()
				rings := make([][]Var, sh.count)
				for r := range rings {
					ring := make([]Var, sh.size)
					for j := range ring {
						ring[j] = s.newVar()
					}
					for j := range ring {
						s.addEdge(ring[j], ring[(j+1)%sh.size])
					}
					rings[r] = ring
				}
				// Cross-links chain the rings so tokens flow everywhere.
				for r := 0; r+1 < sh.count; r++ {
					s.addEdge(rings[r][0], rings[r+1][sh.size/2])
				}
				for r := range rings {
					for k := 0; k < sh.tokens; k++ {
						s.addToken(rings[r][k%sh.size], Token(r*sh.tokens+k))
					}
				}
				solve(s)
			}
		}
		b.Run(sh.name, func(b *testing.B) { run(b, newSolver, (*solver).solve) })
		b.Run(sh.name+"/fifo", func(b *testing.B) { run(b, newSolver, (*solver).solveFIFO) })
	}
}

// BenchmarkSolverSetThresholds exercises membership tests right at the
// smallSetMax linear-scan / map-spill boundary. Used to validate the
// documented choice (see DESIGN.md); change the constant and re-run to
// re-tune.
func BenchmarkSolverSetThresholds(b *testing.B) {
	for _, width := range []int{smallSetMax / 2, smallSetMax, 2 * smallSetMax, 8 * smallSetMax} {
		width := width
		b.Run(fmt.Sprintf("setWidth=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newSolver()
				src := s.newVar()
				snk := s.newVar()
				s.addEdge(src, snk)
				for round := 0; round < 4; round++ {
					for k := 0; k < width; k++ {
						s.addToken(src, Token(k))
					}
					s.solve()
				}
			}
		})
	}
}
