package static

import (
	"testing"

	"repro/internal/corpus"
)

// benchGenerateVars keeps the measured result alive.
var benchGenerateVars int

// BenchmarkGenerate measures constraint generation plus the baseline solve
// over every corpus project: one op is one pass over the corpus. The untimed
// first pass warms the parse caches, so the figures exclude the parser, and
// counts what the reported metrics describe: the pass's constraint
// variables, its distinct (token, property, destination) loads, and how many
// of those loads read an accessor pseudo-property.
func BenchmarkGenerate(b *testing.B) {
	benches := corpus.All()
	solveBaseline := func(bench *corpus.Benchmark) *analyzer {
		a := newAnalyzer(bench.Project, Options{Mode: Baseline})
		if err := a.generate(); err != nil {
			b.Fatalf("%s: %v", bench.Project.Name, err)
		}
		a.s.solve()
		return a
	}
	var vars, loads, accessorLoads int
	for _, bench := range benches {
		a := solveBaseline(bench)
		vars += a.s.numVars()
		loads += len(a.loadSeen)
		for k := range a.loadSeen {
			if _, ok := accessorNameOf(k.prop); ok {
				accessorLoads++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, bench := range benches {
			n += solveBaseline(bench).s.numVars()
		}
		benchGenerateVars = n
	}
	b.StopTimer()
	b.ReportMetric(float64(vars), "vars/op")
	b.ReportMetric(float64(loads), "loads/op")
	b.ReportMetric(float64(accessorLoads), "accessor-loads/op")
}
