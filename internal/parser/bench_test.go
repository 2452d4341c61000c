package parser_test

import (
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/lexer"
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

var (
	benchProg *ast.Program
	benchToks []lexer.Token
)

// BenchmarkParse parses every corpus file once per iteration.
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

// BenchmarkLex tokenizes every corpus file once per iteration: the lexer's
// share of BenchmarkParse, template interpolations aside (the parser
// lexes those separately).
func BenchmarkLex(b *testing.B) {
	paths, srcs := corpusSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			toks, err := lexer.New(paths[j], src).All()
			if err != nil {
				b.Fatal(err)
			}
			benchToks = toks
		}
	}
}
