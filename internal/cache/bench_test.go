package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/modules"
)

var benchKey string

// BenchmarkProjectFingerprint fingerprints every corpus project once per
// iteration. cold builds fresh Project values each iteration, so every
// file is hashed; warm reuses the same values, fingerprinted once before
// the timer starts, which is what a re-run against an unchanged project
// costs.
func BenchmarkProjectFingerprint(b *testing.B) {
	var projects []*modules.Project
	for _, bm := range corpus.All() {
		projects = append(projects, bm.Project)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range projects {
				fresh := &modules.Project{
					Name:        p.Name,
					Files:       p.Files,
					MainEntries: p.MainEntries,
					TestEntries: p.TestEntries,
					MainPrefix:  p.MainPrefix,
				}
				benchKey = cache.ProjectFingerprint(fresh)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for _, p := range projects {
			benchKey = cache.ProjectFingerprint(p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range projects {
				benchKey = cache.ProjectFingerprint(p)
			}
		}
	})
}
