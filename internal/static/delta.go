// File-delta re-analysis. A DeltaSession keeps one project resident —
// most importantly its parse cache — applies file edits, and re-analyzes
// on demand, memoizing the last solved result against a fingerprint of
// every analysis input.
//
// Reuse granularity is chosen where exactness is provable:
//
//   - Parses are reused per file: a parse depends only on (path, source),
//     so after an edit every unchanged file's AST comes from the cache and
//     only dirty files are re-parsed (a cached parse is served only while
//     its file's source is unchanged, so stale parses cannot be served).
//
//   - The solved fixpoint is reused only whole: when the input fingerprint
//     (file set + analysis options + hints) is unchanged, the previous
//     Results are returned without touching the solver. When anything
//     changed, constraints are regenerated and solved from scratch.
//
// The solver deliberately does NOT try to keep per-file constraint
// suffixes across an edit. The subset solver is monotone — constraints
// and tokens are only ever added — so "remove the dirty file's
// constraints and resume" would require deleting state the fixpoint
// already propagated through shared variables, which the engine cannot do
// exactly (a snapshot fork only extends an unchanged fixpoint with more
// constraints; an edit invalidates the fixpoint itself). Re-solving
// from regenerated constraints is therefore the exactness-preserving
// delta: AnalyzeBoth is a pure function of (project, options), so the
// delta path and a from-scratch restart produce byte-identical graphs —
// the seventh fuzz oracle (internal/fuzz) asserts exactly this per seed.
package static

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/hints"
	"repro/internal/modules"
	"repro/internal/perf"
)

// DeltaSession is a resident analysis session over one mutable project.
// All methods are safe for concurrent use; analyses are serialized.
type DeltaSession struct {
	mu      sync.Mutex
	project *modules.Project

	// files is the last analyzed file set (path to source), used to count
	// how many modules an edit actually dirtied.
	files map[string]string
	// projFP is the project fingerprint of the last analysis and fp
	// fingerprints every input of it; base/ext are its memoized results.
	projFP, fp string
	base, ext  *Result
}

// NewDeltaSession wraps a project for delta re-analysis. The project is
// owned by the session from here on: edits must go through Update.
func NewDeltaSession(project *modules.Project) *DeltaSession {
	return &DeltaSession{project: project}
}

// Project returns the session's project (for read-only inspection).
func (s *DeltaSession) Project() *modules.Project { return s.project }

// Update applies a file delta: changed maps paths to their new content
// (added or overwritten), removed lists paths to delete. Parses of the
// superseded file versions are evicted from the in-memory cache so a
// long-lived session's memory stays bounded by its current file set.
func (s *DeltaSession) Update(changed map[string]string, removed []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(changed) == 0 && len(removed) == 0 {
		return
	}
	for path, src := range changed {
		s.project.Files[path] = src
	}
	for _, path := range removed {
		delete(s.project.Files, path)
	}
	s.project.PruneParses()
}

// Analyze runs (or reuses) the incremental baseline+extended analysis of
// the session's current file set. When no analysis input changed since the
// last call — file contents, options, hints — the memoized results are
// returned with reused=true and zero solver work. Otherwise the project is
// re-analyzed with a warm parse cache (only dirty files re-parse), the
// number of dirtied modules is recorded in the perf counters, and the new
// results are memoized.
func (s *DeltaSession) Analyze(opts Options) (base, ext *Result, reused bool, err error) {
	return s.AnalyzeFrom(opts, opts.hintSource())
}

// AnalyzeFrom is Analyze with the hints, and the modules whose hints are
// degraded, taken from src instead of opts.Hints and opts.DegradeFiles.
// While the project fingerprint is that of the memoized analysis, src runs
// first, on the caller, because the hints decide whether the memo is
// reused: a no-op delta costs one call of src. Once the project changed,
// the memo can never match again, so it is released before the re-solve,
// and src runs concurrently with the baseline phase (see AnalyzeBothFrom).
// Like AnalyzeBothFrom, an error from src wins over an analysis error.
func (s *DeltaSession) AnalyzeFrom(opts Options, src HintSource) (base, ext *Result, reused bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	projFP := s.project.Fingerprint()
	if s.base != nil && projFP == s.projFP {
		h, degrade, err := src()
		if err != nil {
			return nil, nil, false, err
		}
		opts.Hints, opts.DegradeFiles = h, degrade
		if s.inputFingerprint(projFP, opts) == s.fp {
			return s.base, s.ext, true, nil
		}
		src = opts.hintSource()
	}
	s.base, s.ext, s.projFP, s.fp = nil, nil, "", ""

	perf.Global().AddDeltaModules(s.dirty())

	// The hints the re-solve consumed are part of its input fingerprint.
	// The source records them on its goroutine; AnalyzeBothFrom joins it
	// before returning.
	record := func() (*hints.Hints, map[string]bool, error) {
		h, degrade, err := src()
		opts.Hints, opts.DegradeFiles = h, degrade
		return h, degrade, err
	}
	base, ext, err = AnalyzeBothFrom(s.project, opts, record)
	if err != nil {
		return nil, nil, false, err
	}
	s.base, s.ext, s.files = base, ext, maps.Clone(s.project.Files)
	s.projFP, s.fp = projFP, s.inputFingerprint(projFP, opts)
	return base, ext, false, nil
}

// dirty counts the modules whose content differs from the last analyzed
// file set: edited and added files, plus removed ones. Callers hold s.mu.
func (s *DeltaSession) dirty() int {
	n := 0
	for path, src := range s.project.Files {
		if old, ok := s.files[path]; !ok || old != src {
			n++
		}
	}
	for path := range s.files {
		if _, ok := s.project.Files[path]; !ok {
			n++
		}
	}
	return n
}

// dirtyCount reports how many modules the pending edits have dirtied since
// the last analysis.
func (s *DeltaSession) dirtyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty()
}

// inputFingerprint hashes every input the analysis outcome depends on: the
// project fingerprint projFP (file set and entry configuration, see
// modules.Project.Fingerprint), the hints, and all outcome-affecting
// options. Every variable-length section is prefixed by its element count
// and every string is length-framed, so section boundaries cannot alias
// with entry values. SolverWorkers is deliberately excluded — the epoch
// engine is report- and counter-identical at every worker count (see
// Options.SolverWorkers).
func (s *DeltaSession) inputFingerprint(projFP string, opts Options) string {
	h := sha256.New()
	var lenBuf [8]byte
	wr := func(str string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(str)))
		h.Write(lenBuf[:])
		h.Write([]byte(str))
	}
	wrN := func(n int) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
	}
	wr(projFP)
	wr(fmt.Sprintf("opts %d %t %t %t %t", opts.Mode,
		opts.DisableDPR, opts.EvalHints, opts.UnknownArgHints, opts.Provenance))
	if opts.Hints != nil {
		var hj bytes.Buffer
		_ = opts.Hints.WriteJSON(&hj)
		wrN(1)
		wr(hj.String())
	} else {
		wrN(0)
	}
	files := make([]string, 0, len(opts.DegradeFiles))
	for f, on := range opts.DegradeFiles {
		if on {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	wrN(len(files))
	for _, f := range files {
		wr(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}
