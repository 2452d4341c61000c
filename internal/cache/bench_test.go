package cache

import (
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/parser"
)

// corpusSources returns every corpus file as (path, source) pairs in a
// fixed order.
func corpusSources() (paths, srcs []string) {
	for _, b := range corpus.All() {
		files := b.Project.Files
		names := make([]string, 0, len(files))
		for path := range files {
			names = append(names, path)
		}
		sort.Strings(names)
		for _, path := range names {
			paths = append(paths, path)
			srcs = append(srcs, files[path])
		}
	}
	return paths, srcs
}

var benchProg *ast.Program

// BenchmarkParse parses every corpus file once per iteration: the cost a
// LoadAST hit must undercut to be worth storing.
func BenchmarkParse(b *testing.B) {
	paths, srcs := corpusSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			prog, err := parser.Parse(paths[j], src)
			if err != nil {
				b.Fatal(err)
			}
			benchProg = prog
		}
	}
}

// BenchmarkLoadAST loads the stored parse of every corpus file once per
// iteration: frame validation plus AST decoding, from a warm page cache.
func BenchmarkLoadAST(b *testing.B) {
	paths, srcs := corpusSources()
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, len(srcs))
	for j, src := range srcs {
		prog, err := parser.Parse(paths[j], src)
		if err != nil {
			b.Fatal(err)
		}
		keys[j] = modules.SourceKey(paths[j], src)
		s.StoreAST(keys[j], prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			prog, ok := s.LoadAST(key)
			if !ok {
				b.Fatal("stored parse missed")
			}
			benchProg = prog
		}
	}
}
