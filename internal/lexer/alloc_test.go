package lexer_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lexer"
)

// TestLexAllocations guards the lexer's allocation budget: tokens stay on
// the stack, and a file with no escapes lexes into its token slice alone,
// plus at most one regrowth of it. It checks the largest escape-free
// corpus files.
func TestLexAllocations(t *testing.T) {
	var srcs []string
	for _, b := range corpus.All() {
		for _, src := range b.Project.Files {
			if !strings.Contains(src, `\`) {
				srcs = append(srcs, src)
			}
		}
	}
	if len(srcs) == 0 {
		t.Fatal("no escape-free corpus file")
	}
	sort.Slice(srcs, func(i, j int) bool { return len(srcs[i]) > len(srcs[j]) })
	for _, src := range srcs[:min(len(srcs), 5)] {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := lexer.New("f.js", src).All(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("lexing a %d-byte escape-free file allocates %v times, want at most 2", len(src), allocs)
		}
	}
}
