// Package fuzz is the soundness differential fuzzer: per seed it generates
// a multi-file program in the supported JS subset (internal/testgen), runs
// the concrete interpreter to record the dynamic call graph
// (internal/dyncg), runs the full static pipeline (approximate
// interpretation → baseline + extended analysis, both incrementally and as
// two passes), and checks the oracles the paper's soundness claim rests
// on:
//
//   - soundness: every dynamically observed call edge is in the extended
//     static call graph;
//   - monotonicity: the extended graph is a superset of the baseline graph
//     (hints are strictly additive, §4);
//   - equivalence: the incremental baseline→extended resume produces
//     exactly the two-pass graphs;
//   - round-trip: every generated file parses, prints, reparses, and
//     reaches a print fixpoint;
//   - totality: no pipeline stage panics or fails with an internal error.
//
// Failing programs are delta-debugged down to minimized reproducers
// (minimize.go) and written to testdata/fuzz/ (repro.go).
package fuzz

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/dyncg"
	"repro/internal/loc"
	"repro/internal/parser"
	"repro/internal/static"
	"repro/internal/testgen"
)

// Kind is the top-level triage bucket of a failure.
type Kind string

// Triage buckets.
const (
	KindCrash       Kind = "crash"                  // panic or internal error in any stage
	KindRoundTrip   Kind = "round-trip"             // parse/print round-trip broken
	KindUnsound     Kind = "unsound-edge"           // dynamic edge missing from extended graph
	KindIncremental Kind = "incremental-divergence" // incremental != two-pass
	KindMonotone    Kind = "non-monotone"           // extended graph lost a baseline edge
)

// Failure describes one oracle violation on one program.
type Failure struct {
	Seed    uint64
	Kind    Kind
	Bucket  string // root-cause sub-bucket, e.g. "unsound-edge/computed-call"
	Detail  string
	Files   map[string]string
	Entries []string
	// Minimized marks files as the output of delta debugging.
	Minimized bool
}

func (f *Failure) String() string {
	return fmt.Sprintf("seed %d [%s] %s", f.Seed, f.Bucket, f.Detail)
}

// solverWorkers is the epoch engine's scan-worker count every oracle run
// uses (0 and 1 both mean one worker). Set once by Run (from
// Options.SolverWorkers) before any worker starts; the oracles themselves
// are worker-count-agnostic — the static analysis must produce identical
// graphs at every value, so a fuzzing sweep with concurrent workers is the
// same differential search plus an implicit equivalence check against the
// dynamic ground truth.
var solverWorkers int

// CheckSeed generates the program for seed and checks every oracle.
// It returns nil if all oracles hold.
func CheckSeed(seed uint64) *Failure {
	spec := testgen.GenProject(seed)
	f := CheckFiles(spec.Files, spec.Entries)
	if f != nil {
		f.Seed = seed
	}
	return f
}

// CheckSeedTiers is CheckSeed over the feature-tier grammar: the generated
// program is weighted toward the named tiers (generators, combinators,
// proxy, esm — all of them when tiers is empty) and every oracle runs
// unchanged.
func CheckSeedTiers(seed uint64, tiers []string) *Failure {
	spec := testgen.GenFeatureProject(seed, tiers)
	f := CheckFiles(spec.Files, spec.Entries)
	if f != nil {
		f.Seed = seed
	}
	return f
}

// CheckFiles checks every oracle against the given virtual project. The
// minimizer re-enters here with reduced file sets.
func CheckFiles(files map[string]string, entries []string) *Failure {
	fail := func(kind Kind, bucket, detail string) *Failure {
		return &Failure{Kind: kind, Bucket: string(kind) + "/" + bucket, Detail: detail,
			Files: files, Entries: entries}
	}

	// Oracle 1 — parse/print round-trip on every file.
	if f := checkRoundTrip(files, fail); f != nil {
		return f
	}

	project := newFuzzProject(files, entries)

	// Oracle 2 — no stage may panic or fail internally.
	var dyn *dyncg.Result
	if f := guard("dyncg", fail, func() error {
		var err error
		dyn, err = dyncg.Build(project, dyncg.Options{})
		return err
	}); f != nil {
		return f
	}

	var hints *approx.Result
	if f := guard("approx", fail, func() error {
		var err error
		hints, err = approx.Run(project, approx.Options{})
		return err
	}); f != nil {
		return f
	}

	extOpts := static.Options{Mode: static.WithHints, Hints: hints.Hints, EvalHints: true, SolverWorkers: solverWorkers}
	var baseTP, extTP, baseIn, extIn *static.Result
	if f := guard("static-two-pass", fail, func() error {
		var err error
		if baseTP, err = static.Analyze(project, static.Options{Mode: static.Baseline, SolverWorkers: solverWorkers}); err != nil {
			return err
		}
		extTP, err = static.Analyze(project, extOpts)
		return err
	}); f != nil {
		return f
	}
	if f := guard("static-incremental", fail, func() error {
		var err error
		baseIn, extIn, err = static.AnalyzeBoth(project, extOpts)
		return err
	}); f != nil {
		return f
	}

	// Oracle 3 — incremental == two-pass, for both phases.
	if !baseIn.Graph.Equal(baseTP.Graph) {
		return fail(KindIncremental, "baseline",
			"incremental baseline graph differs from two-pass baseline: "+firstGraphDiff(baseIn.Graph, baseTP.Graph))
	}
	if !extIn.Graph.Equal(extTP.Graph) {
		return fail(KindIncremental, "extended",
			"incremental extended graph differs from two-pass extended: "+firstGraphDiff(extIn.Graph, extTP.Graph))
	}

	// Oracle 4 — extended ⊇ baseline (hints are strictly additive).
	for _, site := range baseTP.Graph.SortedSites() {
		for _, target := range baseTP.Graph.Targets(site) {
			if !extTP.Graph.HasEdge(site, target) {
				return fail(KindMonotone, "lost-edge",
					fmt.Sprintf("baseline edge %s -> %s missing from extended graph", site, fmtTarget(target)))
			}
		}
	}

	// Oracle 5 — soundness: dynamic ⊆ extended.
	missing := MissingDynamicEdges(extTP.Graph, dyn.Graph)
	if len(missing) > 0 {
		e := missing[0]
		detail := fmt.Sprintf("dynamic edge %s -> %s missing from extended static graph (%d missing total)",
			e.Site, fmtTarget(e.Target), len(missing))
		return fail(KindUnsound, ClassifyEdge(files, e.Site, e.Target), detail)
	}
	return nil
}

// Edge is one call edge (site → callee) of a call graph.
type Edge struct {
	Site   loc.Loc
	Target callgraph.FuncID
}

// TargetDesc renders the edge target for display: module(path) for module
// functions, the definition site otherwise.
func (e Edge) TargetDesc() string { return fmtTarget(e.Target) }

// MissingDynamicEdges returns, in deterministic order, every edge of the
// dynamic graph that the static graph lacks.
func MissingDynamicEdges(static, dyn *callgraph.Graph) []Edge {
	var sites []loc.Loc
	for s := range dyn.Edges {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Before(sites[j]) })
	var out []Edge
	for _, s := range sites {
		for _, t := range dyn.Targets(s) {
			if !static.HasEdge(s, t) {
				out = append(out, Edge{Site: s, Target: t})
			}
		}
	}
	return out
}

// ClassifyEdge guesses the root-cause bucket of a missing dynamic edge
// from the call-site source text and the target shape.
func ClassifyEdge(files map[string]string, site loc.Loc, target callgraph.FuncID) string {
	if callgraph.IsModuleFunc(target) {
		return "module-edge"
	}
	// A site inside built-in library code (or an edge into it) is a
	// callback dispatched by a native — e.g. a timer or an events-style
	// emitter invoking a user listener — not an unknown site.
	if strings.HasPrefix(site.File, "node:") || strings.HasPrefix(target.File, "node:") {
		return "builtin-callback"
	}
	line := sourceLine(files, site)
	if line == "" {
		return "unknown-site"
	}
	// The call-site location points at the argument list; the callee
	// expression is the text before the column.
	col := site.Col - 1
	if col < 0 {
		col = 0
	}
	if col > len(line) {
		col = len(line)
	}
	pre := strings.TrimRight(line[:col], " \t")
	rest := line[col:]
	switch {
	case strings.HasPrefix(rest, "new ") || strings.HasSuffix(pre, "new"):
		return "constructor-call"
	case strings.HasSuffix(pre, "]"):
		return "computed-call"
	case strings.HasSuffix(pre, ".apply") || strings.HasSuffix(pre, ".call") || strings.HasSuffix(pre, ".bind"):
		return "reflective-call"
	case strings.Contains(lastToken(pre), "."):
		return "method-call"
	default:
		return "direct-call"
	}
}

// lastToken returns the trailing identifier/member chain of an expression
// prefix ("res = t12.go" → "t12.go").
func lastToken(s string) string {
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c == '.' || c == '_' || c == '$' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') {
			i--
			continue
		}
		break
	}
	return s[i:]
}

func sourceLine(files map[string]string, site loc.Loc) string {
	src, ok := files[site.File]
	if !ok {
		return ""
	}
	lines := strings.Split(src, "\n")
	if site.Line-1 < 0 || site.Line-1 >= len(lines) {
		return ""
	}
	return lines[site.Line-1]
}

func fmtTarget(t callgraph.FuncID) string {
	if callgraph.IsModuleFunc(t) {
		return "module(" + t.File + ")"
	}
	return t.String()
}

// firstGraphDiff renders the first edge present in exactly one of two
// graphs (for divergence diagnostics).
func firstGraphDiff(a, b *callgraph.Graph) string {
	for _, site := range a.SortedSites() {
		for _, t := range a.Targets(site) {
			if !b.HasEdge(site, t) {
				return fmt.Sprintf("edge %s -> %s only in first", site, fmtTarget(t))
			}
		}
	}
	for _, site := range b.SortedSites() {
		for _, t := range b.Targets(site) {
			if !a.HasEdge(site, t) {
				return fmt.Sprintf("edge %s -> %s only in second", site, fmtTarget(t))
			}
		}
	}
	if len(a.Sites) != len(b.Sites) {
		return fmt.Sprintf("site count %d vs %d", len(a.Sites), len(b.Sites))
	}
	return "graphs differ in funcs/native-resolved marks"
}

// checkRoundTrip verifies parse → print → reparse → print reaches a
// fixpoint for every file.
func checkRoundTrip(files map[string]string, fail func(Kind, string, string) *Failure) *Failure {
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p1, err := parser.Parse(path, files[path])
		if err != nil {
			return fail(KindRoundTrip, "parse", fmt.Sprintf("%s does not parse: %v", path, err))
		}
		out1 := ast.Print(p1)
		p2, err := parser.Parse(path, out1)
		if err != nil {
			return fail(KindRoundTrip, "reparse", fmt.Sprintf("%s: printed form does not reparse: %v", path, err))
		}
		if out2 := ast.Print(p2); out2 != out1 {
			return fail(KindRoundTrip, "fixpoint", fmt.Sprintf("%s: printing is not a fixpoint", path))
		}
	}
	return nil
}

// guard runs one pipeline stage, converting panics and internal errors
// into crash failures.
func guard(stage string, fail func(Kind, string, string) *Failure, fn func() error) (f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = fail(KindCrash, stage, fmt.Sprintf("panic in %s: %v", stage, r))
		}
	}()
	if err := fn(); err != nil {
		return fail(KindCrash, stage, fmt.Sprintf("%s failed: %v", stage, err))
	}
	return nil
}

// ------------------------------------------------------------------ driver

// Options tunes a fuzzing run.
type Options struct {
	// Seeds is the number of seeds to check (starting at Start).
	Seeds int
	// Start is the first seed.
	Start uint64
	// Workers is the parallel worker count (0 = GOMAXPROCS).
	Workers int
	// Minimize delta-debugs the first failure of every distinct bucket.
	Minimize bool
	// MinimizeBudget caps oracle re-runs per minimization (0 = 1500).
	MinimizeBudget int
	// Faults switches every seed to the sixth oracle (CheckSeedFaulted):
	// one deterministic fault is injected per seed and the run checks that
	// the pipeline contains it.
	Faults bool
	// Delta switches every seed to the seventh oracle (CheckSeedDelta):
	// one deterministic file mutation is applied through a resident
	// static.DeltaSession and the run checks that delta re-analysis is
	// indistinguishable from a from-scratch restart.
	Delta bool
	// SolverWorkers is the epoch engine's scan-worker count for every
	// oracle run (0 and 1 both mean one worker). Graphs are identical at
	// every value; failures found under one reproduce under any other.
	SolverWorkers int
	// Tiers switches every seed to the feature-tier grammar
	// (testgen.GenFeatureProject) weighted toward the named tiers. Mutually
	// exclusive with Faults and Delta.
	Tiers []string
}

// Report is the outcome of a fuzzing run.
type Report struct {
	Seeds    int
	Failures []*Failure // seed order
	// Buckets counts failures per root-cause bucket.
	Buckets map[string]int
	// Representative maps each bucket to its first (lowest-seed) failure —
	// minimized when Options.Minimize is set.
	Representative map[string]*Failure
	Duration       time.Duration
}

// Run fuzzes opts.Seeds seeds in parallel. The result is deterministic:
// failures are reported in seed order regardless of worker interleaving.
func Run(opts Options) *Report {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	solverWorkers = opts.SolverWorkers
	start := time.Now()
	results := make([]*Failure, opts.Seeds)
	var next uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= uint64(opts.Seeds) {
					return
				}
				switch {
				case opts.Faults:
					results[i] = CheckSeedFaulted(opts.Start + i)
				case opts.Delta:
					results[i] = CheckSeedDelta(opts.Start + i)
				case len(opts.Tiers) > 0:
					results[i] = CheckSeedTiers(opts.Start+i, opts.Tiers)
				default:
					results[i] = CheckSeed(opts.Start + i)
				}
			}
		}()
	}
	wg.Wait()

	rep := &Report{Seeds: opts.Seeds, Buckets: map[string]int{}, Representative: map[string]*Failure{}}
	for _, f := range results {
		if f == nil {
			continue
		}
		rep.Failures = append(rep.Failures, f)
		rep.Buckets[f.Bucket]++
		if _, ok := rep.Representative[f.Bucket]; !ok {
			rep.Representative[f.Bucket] = f
		}
	}
	if opts.Minimize {
		for bucket, f := range rep.Representative {
			if f.Kind == KindFaultEscape || f.Kind == KindDeltaDivergence {
				// Minimization re-runs the plain oracles, which cannot
				// reproduce an injected fault or a session-path divergence;
				// keep the full program.
				continue
			}
			rep.Representative[bucket] = Minimize(f, opts.MinimizeBudget)
		}
	}
	rep.Duration = time.Since(start)
	return rep
}

// SortedBuckets returns the report's buckets in deterministic order.
func (r *Report) SortedBuckets() []string {
	var out []string
	for b := range r.Buckets {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}
