package static

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/fault"
	"repro/internal/hints"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/parser"
	"repro/internal/perf"
)

// Mode selects how hints are consumed.
type Mode int

// Analysis modes.
const (
	// Baseline ignores dynamic property reads and writes entirely (the
	// pragmatic-but-unsound approach of WALA/JAM, paper §1).
	Baseline Mode = iota
	// WithHints adds the [DPR] and [DPW] rules of §4, injecting the hints
	// produced by approximate interpretation.
	WithHints
	// AblationNameOnly implements the §4 strawman: dynamic property writes
	// are treated as static writes of each observed property name, without
	// the relational base/value pairing, demonstrating the precision loss.
	AblationNameOnly
)

// Options configures an analysis run.
type Options struct {
	Mode  Mode
	Hints *hints.Hints // required unless Mode == Baseline
	// DisableDPR turns off the read-hint rule while keeping [DPW]
	// (used for the Table 2 benchmark marked *, where [dpr] caused OOM).
	DisableDPR bool
	// EvalHints enables the §6 "dynamically generated code" extension:
	// program text observed at eval sites during approximate
	// interpretation is parsed and analyzed as additional code in the
	// scope of the module that ran it.
	EvalHints bool
	// UnknownArgHints enables the §6 "unknown function arguments"
	// extension: dynamic reads observed on the proxy value with concrete
	// property names are treated as static reads of those names. Applied
	// only at read sites without ℋ_R entries, per the paper ("this kind of
	// hint should only be produced when no hints would otherwise be
	// produced").
	UnknownArgHints bool
	// SolverWorkers is the number of scan workers of the sharded epoch
	// engine (parallel.go) that propagates constraints; 0 and 1 both mean
	// one worker, with every epoch run inline. Results, solver-effort and
	// structure counters are identical for every value: the epoch schedule
	// does not depend on the worker count. Phases that must run in exact
	// no-unify mode (the rolled-back ablation arm) use the solver's plain
	// pop loop regardless of this setting.
	SolverWorkers int
	// Provenance enables the constraint-provenance journal: every issued
	// constraint records the rule chain that produced it (rule id, source
	// site, hint origin), queryable through Result.Provenance. Recording is
	// observational — call graphs, metrics, and effort counters are
	// byte-identical with it on or off — and costs one nil pointer check
	// per constraint when disabled. Incompatible with the rolled-back
	// ablation arm (AnalyzeBothAndAblation), whose rewind would strand
	// journal entries.
	Provenance bool
	// DegradeFiles names modules whose pre-analysis faulted (panic,
	// deadline, corrupt source): every hint anchored in one of them is
	// dropped before injection, so those modules fall back to baseline-only
	// constraints. Their partial observations may stop at an arbitrary
	// point; baseline constraints never depend on observations, so the
	// degraded modules keep the analysis sound while only the faulted
	// modules lose the hint-derived precision/recall.
	DegradeFiles map[string]bool
}

// Result is the outcome of a static analysis run.
type Result struct {
	Graph *callgraph.Graph
	// MainEntries are the module functions of the main package, the
	// reachability roots of §5's reachable-functions metric.
	MainEntries []callgraph.FuncID
	// NumVars and NumTokens describe constraint-system size.
	NumVars   int
	NumTokens int
	// SolveIterations and TokensDelivered describe solver effort: fixpoint
	// iterations (queue pops) and token-propagation attempts.
	SolveIterations int64
	TokensDelivered int64
	// Structure reports the solver's cycle-collapse activity for this run
	// (cumulative across phases on the incremental path).
	Structure StructureStats
	// Parallel reports the epoch engine's activity (cumulative across
	// phases on the incremental path).
	Parallel ParallelSolveStats
	// SolveWall is the wall-clock time spent inside solver fixpoint
	// propagation for this result's phase(s) — the quantity the parallel
	// engine exists to shrink. A subset of Duration.
	SolveWall time.Duration
	// AnalyzedModules is the number of modules in the whole-program view.
	AnalyzedModules int
	Duration        time.Duration
	// AllocBytes is the heap allocated while this analysis (or, for the
	// incremental path, this phase of it) ran — a process-global
	// runtime.MemStats TotalAlloc delta, so exact in single-threaded runs
	// and approximate when other goroutines allocate concurrently.
	AllocBytes int64
	// Faults records contained failures of this phase (currently only
	// unparsable project files, skipped instead of failing the run).
	Faults []fault.Record
	// DegradedModules are the modules whose hints were dropped via
	// Options.DegradeFiles, sorted.
	DegradedModules []string
	// Provenance is the constraint-provenance query surface, set when
	// Options.Provenance was requested (on the extended result for the
	// incremental path). It retains the solved constraint system.
	Provenance *Provenance
}

// Metrics computes the paper's §5 call-graph metrics for this result.
func (r *Result) Metrics() callgraph.Metrics { return r.Graph.ComputeMetrics(r.MainEntries) }

// ------------------------------------------------------------------- tokens

type tokenKind int

const (
	tokObject   tokenKind = iota // object/array literal, new site, Object.create site
	tokFunction                  // user function definition
	tokProto                     // the implicit .prototype object of a user function
	tokNative                    // built-in function or namespace
	tokModule                    // a module object (per module)
	tokExports                   // the initial exports object (per module)
)

type tokenInfo struct {
	kind tokenKind
	site loc.Loc      // allocation site (valid for tokObject/tokFunction)
	fn   *ast.FuncLit // for tokFunction
	name string       // for tokNative: the behavior name ("Array.prototype.forEach")
	path string       // for tokModule/tokExports
}

type propKey struct {
	t    Token
	prop string
}

type loadKey struct {
	t    Token
	prop string
	dst  Var
}

// fnInfo holds the constraint variables of one user function.
type fnInfo struct {
	decl     *ast.FuncLit
	params   []Var
	restIdx  int
	ret      Var // what return statements produce
	out      Var // what calls receive (== ret, or a promise for async fns)
	this     Var
	argsTok  Token
	argsElem Var // $elem of the arguments object
	restElem Var // $elem of the rest-parameter array (if any)
	// yieldElem, for generator functions, is the $elem pseudo-property of
	// the generator object calls receive: every yielded value flows there
	// (the eager model — for-of, spread, and next() all read it).
	yieldElem Var

	generated bool // body constraints emitted
}

// frame is a lexical scope during constraint generation.
type frame struct {
	vars    map[string]Var
	parent  *frame
	thisVar Var
	fn      *fnInfo // nil at module level
}

func (f *frame) lookup(name string) (Var, bool) {
	for cur := f; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// analyzer carries all analysis state.
type analyzer struct {
	project *modules.Project
	opts    Options
	s       *solver

	progs map[string]*ast.Program

	tokens    []tokenInfo
	siteToken map[loc.Loc]Token
	fnToken   map[*ast.FuncLit]Token
	natives   map[string]Token

	propVars  map[propKey]Var
	protoVars map[Token]Var
	fnInfos   map[Token]*fnInfo
	loadSeen  map[loadKey]bool
	// accessors is the wake state of each accessor pseudo-property name
	// (see features.go).
	accessors map[accName]*accessorReads

	globals map[string]Var

	moduleExports map[string]Var // path → ⟦moduleTok.exports⟧
	moduleFrames  map[string]*frame

	// dynReads maps each dynamic read site ℓ to its result variable (the
	// [DPR] injection point).
	dynReads map[loc.Loc]Var
	// dynReadBases maps each dynamic read site to its base-expression
	// variable (used by the §6 unknown-argument extension).
	dynReadBases map[loc.Loc]Var
	// dynWrites maps each dynamic write site to its base/value variables
	// (used by the name-only ablation).
	dynWrites map[loc.Loc]dynWriteInfo
	// dynRequires maps each dynamically-specified require call site whose
	// require behavior has fired to its result variable, so an incremental
	// resume can retro-link module hints for sites whose behavior fired
	// (once, per trigger/token pair) during the baseline solve.
	dynRequires map[loc.Loc]Var
	// requireLits maps require call sites to their literal module
	// specifier ("" when the specifier is dynamically computed).
	requireLits map[loc.Loc]string
	// strArgs records string-literal argument values per call site, for
	// native models that need literal keys (Object.defineProperty accessor
	// descriptors, Reflect.get/set).
	strArgs map[loc.Loc]map[int]string
	// siteModule maps call sites to the module containing them (for
	// require resolution).
	siteModule map[loc.Loc]string
	// evalResults maps each module to the variable holding the completion
	// values of code it passed to direct eval. The eval native behavior
	// wires this variable to each eval call's result, and genEvalHints
	// routes the observed programs' completion values into it, so values
	// returned out of eval'd code reach the surrounding program.
	evalResults map[string]Var

	cg *callgraph.Graph

	// tokenBehaviors lets natives create site-specific callable tokens
	// (e.g. a Promise executor's resolve function, whose argument flows
	// into that particular promise's payload).
	tokenBehaviors map[Token]func(site loc.Loc, argVars []Var, result Var)

	curModule string
	curFn     callgraph.FuncID

	// paths is the sorted whole-program module list, filled by generate.
	paths []string

	// hintTokenEligible, when non-nil, filters which site tokens hint
	// injection may bind to. The incremental resume sets it so injection
	// sees exactly the tokens a from-scratch run would see at injection
	// time (generation-created ones), not tokens the baseline solve
	// materialized afterwards (native members, Object.create sites, …).
	hintTokenEligible func(Token) bool

	// journal, when non-nil, records map insertions made inside an open
	// rollback window that rollbackTo's watermark sweeps cannot detect
	// (see beginRollbackWindow).
	journal *deltaJournal

	// provSites records per-call-site attribution data (callee/receiver/
	// argument variables, callee kind) when provenance is enabled.
	provSites map[loc.Loc]provCallSite

	// commonly used native prototype tokens
	objectProto, arrayProto, functionProto Token

	// faults records contained failures (unparsable project files skipped
	// by collectModules).
	faults []fault.Record
}

// newAnalyzer builds an analyzer with empty state.
func newAnalyzer(project *modules.Project, opts Options) *analyzer {
	a := &analyzer{
		project:        project,
		opts:           opts,
		s:              newSolver(),
		progs:          map[string]*ast.Program{},
		siteToken:      map[loc.Loc]Token{},
		fnToken:        map[*ast.FuncLit]Token{},
		natives:        map[string]Token{},
		propVars:       map[propKey]Var{},
		protoVars:      map[Token]Var{},
		fnInfos:        map[Token]*fnInfo{},
		loadSeen:       map[loadKey]bool{},
		accessors:      map[accName]*accessorReads{},
		globals:        map[string]Var{},
		moduleExports:  map[string]Var{},
		moduleFrames:   map[string]*frame{},
		dynReads:       map[loc.Loc]Var{},
		dynReadBases:   map[loc.Loc]Var{},
		dynWrites:      map[loc.Loc]dynWriteInfo{},
		dynRequires:    map[loc.Loc]Var{},
		requireLits:    map[loc.Loc]string{},
		strArgs:        map[loc.Loc]map[int]string{},
		siteModule:     map[loc.Loc]string{},
		evalResults:    map[string]Var{},
		tokenBehaviors: map[Token]func(loc.Loc, []Var, Var){},
		cg:             callgraph.New(),
	}
	a.s.configureParallel(opts.SolverWorkers)
	if opts.Provenance {
		a.s.prov = newProvJournal()
		a.provSites = map[loc.Loc]provCallSite{}
	}
	return a
}

// recordParallelStats flushes the epoch engine's counters to the global
// perf counters and returns them for the Result.
func (a *analyzer) recordParallelStats() ParallelSolveStats {
	ps := a.s.parallelStats()
	perf.Global().AddSolverParallel(ps.Epochs, ps.Steals, ps.CrossShard, ps.AsyncSweeps,
		ps.ScanNS, ps.ApplyNS, ps.TailNS, ps.SweepOverlapNS)
	return ps
}

// generate parses the whole program and emits its base constraints: native
// token setup, module collection, and per-module constraint generation in
// deterministic (sorted-path) order. Generation is mode-independent — the
// hint-consuming rules only add constraints on top, via genEvalHints and
// injectHints before solving (or, in the incremental path, as deltas after
// the baseline fixpoint).
func (a *analyzer) generate() error {
	a.setupNativeTokens()
	if err := a.collectModules(); err != nil {
		return err
	}
	a.paths = make([]string, 0, len(a.progs))
	for p := range a.progs {
		a.paths = append(a.paths, p)
	}
	sort.Strings(a.paths)
	for _, path := range a.paths {
		a.genModule(path, a.progs[path])
	}
	return nil
}

// mainEntries returns the reachability roots: the module functions of the
// main package, in sorted-path order.
func (a *analyzer) mainEntries() []callgraph.FuncID {
	var entries []callgraph.FuncID
	for _, path := range a.paths {
		if a.project.IsMainModule(path) {
			entries = append(entries, callgraph.ModuleFunc(path))
		}
	}
	return entries
}

// Analyze runs the static analysis on a whole program (the project plus
// transitively required built-in modules).
func Analyze(project *modules.Project, opts Options) (*Result, error) {
	if opts.Mode != Baseline && opts.Hints == nil {
		return nil, fmt.Errorf("static: mode %d requires hints", opts.Mode)
	}
	// Degradation: drop every hint anchored in a faulted module before any
	// injection, so those modules contribute only baseline constraints.
	if opts.Hints != nil {
		opts.Hints = opts.Hints.WithoutFiles(opts.DegradeFiles)
	}
	start := time.Now()
	alloc0 := perf.TotalAllocBytes()
	a := newAnalyzer(project, opts)
	if err := a.generate(); err != nil {
		return nil, err
	}

	// §6 extension: analyze dynamically generated code observed by the
	// pre-analysis as additional code of its module.
	if opts.EvalHints && opts.Hints != nil {
		a.genEvalHints()
	}

	// Inject hints (the [DPR]/[DPW] rules of §4).
	a.injectHints()

	// Solve to fixpoint.
	solveStart := time.Now()
	a.s.solve()
	solveWall := time.Since(solveStart)

	iters, delivered := a.s.stats()
	perf.Global().AddSolve(iters, delivered)
	ss := a.s.structure()
	perf.Global().AddSolveStructure(ss.CyclesCollapsed, ss.VarsUnified,
		ss.EdgesDeduped, ss.RedundantSkipped)
	pstats := a.recordParallelStats()

	res := &Result{
		Graph:           a.cg,
		MainEntries:     a.mainEntries(),
		NumVars:         a.s.numVars(),
		NumTokens:       len(a.tokens),
		SolveIterations: iters,
		TokensDelivered: delivered,
		Structure:       ss,
		Parallel:        pstats,
		SolveWall:       solveWall,
		AnalyzedModules: len(a.progs),
		Duration:        time.Since(start),
		AllocBytes:      perf.TotalAllocBytes() - alloc0,
		Faults:          a.faults,
		DegradedModules: degradedList(opts.DegradeFiles),
	}
	if a.s.prov != nil {
		res.Provenance = newProvenance(a)
	}
	return res, nil
}

// degradedList returns the degradation set as a sorted slice for reporting.
func degradedList(files map[string]bool) []string {
	if len(files) == 0 {
		return nil
	}
	out := make([]string, 0, len(files))
	for f := range files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

type dynWriteInfo struct {
	base  Var
	value Var
}

// genEvalHints parses each observed eval-code string and generates its
// constraints in the lexical frame of the module that executed it, so
// references to module-scope variables (exports, local functions, …)
// resolve as in direct eval.
func (a *analyzer) genEvalHints() {
	for i, e := range a.opts.Hints.EvalHints() {
		fr, ok := a.moduleFrames[e.Module]
		if !ok {
			continue
		}
		file := fmt.Sprintf("%s#evalhint%d", e.Module, i)
		prog, err := parser.Parse(file, e.Source)
		if err != nil {
			continue // unparsable generated code is skipped
		}
		savedModule, savedFn := a.curModule, a.curFn
		a.curModule = e.Module
		a.curFn = callgraph.ModuleFunc(e.Module)
		prevCtx := a.pushCtx(RuleEvalHint, loc.Loc{File: e.Module}, file)
		a.hoistInto(prog.Body, fr)
		for _, st := range prog.Body {
			// A direct eval returns the completion value of the evaluated
			// program. Route every top-level expression statement's value
			// into the module's eval-result variable (an over-approximation
			// of the completion value), where the eval native behavior
			// forwards it to each eval call's result.
			if es, ok := st.(*ast.ExprStmt); ok {
				a.s.addEdge(a.genExpr(es.X, fr), a.evalResultVar(e.Module))
				continue
			}
			a.genStmt(st, fr)
		}
		a.popCtx(prevCtx)
		a.curModule, a.curFn = savedModule, savedFn
	}
}

// evalResultVar returns (creating on first use) the variable holding the
// completion values of programs module passed to direct eval.
func (a *analyzer) evalResultVar(module string) Var {
	v, ok := a.evalResults[module]
	if !ok {
		v = a.s.newVar()
		a.evalResults[module] = v
	}
	return v
}

// collectModules parses every project file plus the transitive closure of
// statically resolvable built-in module requires (whole-program analysis).
func (a *analyzer) collectModules() error {
	var queue []string
	for _, path := range a.project.SortedPaths() {
		queue = append(queue, path)
	}
	seen := map[string]bool{}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		// The project's shared parse cache: files already parsed by the
		// pre-analysis (or an earlier static run) are not parsed again.
		prog, err := a.project.Parse(path)
		if err != nil {
			if errors.Is(err, modules.ErrNoSource) {
				continue
			}
			// A corrupt (unparsable) file is skipped, not fatal: the module
			// drops out of the whole-program view — the deepest form of
			// degradation — and the failure is reported as a fault so the
			// run's metrics show which modules were lost.
			a.faults = append(a.faults, fault.Record{
				Phase: "static", Module: path, Kind: fault.KindParse, Detail: err.Error(),
			})
			continue
		}
		a.progs[path] = prog
		// Discover statically required modules.
		ast.Walk(prog, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Callee.(*ast.Ident)
			if !ok || id.Name != "require" || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.StringLit)
			if !ok {
				return true
			}
			if target, err := modules.Resolve(a.project, path, lit.Value); err == nil {
				if !seen[target] {
					queue = append(queue, target)
				}
			}
			return true
		})
	}
	return nil
}

// ------------------------------------------------------------ token helpers

func (a *analyzer) newToken(info tokenInfo) Token {
	a.tokens = append(a.tokens, info)
	return Token(len(a.tokens) - 1)
}

// allocToken returns the token for an allocation site, creating it if
// needed.
func (a *analyzer) allocToken(site loc.Loc, kind tokenKind) Token {
	if t, ok := a.siteToken[site]; ok {
		return t
	}
	t := a.newToken(tokenInfo{kind: kind, site: site})
	a.siteToken[site] = t
	return t
}

// funcToken returns the token for a user function definition, creating its
// prototype object and default prototype wiring on first use.
func (a *analyzer) funcToken(f *ast.FuncLit) Token {
	if t, ok := a.fnToken[f]; ok {
		return t
	}
	t := a.newToken(tokenInfo{kind: tokFunction, site: f.Loc, fn: f})
	a.fnToken[f] = t
	a.siteToken[f.Loc] = t
	a.cg.AddFunc(f.Loc)
	// Implicit F.prototype object (not for arrows).
	if !f.IsArrow {
		proto := a.newToken(tokenInfo{kind: tokProto, site: f.Loc})
		a.s.addToken(a.propVar(t, "prototype"), proto)
		a.s.addToken(a.propVar(proto, "constructor"), t)
		a.s.addToken(a.protoVar(proto), a.objectProto)
	}
	a.s.addToken(a.protoVar(t), a.functionProto)
	return t
}

func (a *analyzer) nativeToken(name string) Token {
	if t, ok := a.natives[name]; ok {
		return t
	}
	t := a.newToken(tokenInfo{kind: tokNative, name: name})
	a.natives[name] = t
	return t
}

// propVar returns ⟦t.prop⟧.
func (a *analyzer) propVar(t Token, prop string) Var {
	key := propKey{t, prop}
	if v, ok := a.propVars[key]; ok {
		return v
	}
	v := a.s.newVar()
	a.propVars[key] = v
	a.wakeAccessor(prop)
	return v
}

// protoVar returns the variable holding t's prototype objects.
func (a *analyzer) protoVar(t Token) Var {
	if v, ok := a.protoVars[t]; ok {
		return v
	}
	v := a.s.newVar()
	a.protoVars[t] = v
	return v
}

// fnInfoFor returns (creating on demand) the variables of a user function.
func (a *analyzer) fnInfoFor(t Token) *fnInfo {
	if fi, ok := a.fnInfos[t]; ok {
		return fi
	}
	f := a.tokens[t].fn
	fi := &fnInfo{
		decl:    f,
		restIdx: f.RestIdx,
		ret:     a.s.newVar(),
		this:    a.s.newVar(),
	}
	switch {
	case f.IsGenerator:
		// Calls to generator functions receive a generator object whose
		// conflated element set carries every yielded value; the body's
		// return value is delivered by the final next() via $genret. (The
		// interpreter's eager model: async generators return a generator
		// directly, not a promise.)
		genTok := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
		a.s.addToken(a.protoVar(genTok), a.nativeToken("Generator.prototype"))
		fi.yieldElem = a.propVar(genTok, "$elem")
		a.s.addEdge(fi.ret, a.propVar(genTok, "$genret"))
		fi.out = a.s.newVar()
		a.s.addToken(fi.out, genTok)
	case f.IsAsync:
		// Calls to async functions receive a promise whose payload is the
		// function's return values.
		promiseTok := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
		a.s.addToken(a.protoVar(promiseTok), a.nativeToken("Promise.prototype"))
		a.s.addEdge(fi.ret, a.propVar(promiseTok, "$promiseval"))
		fi.out = a.s.newVar()
		a.s.addToken(fi.out, promiseTok)
	default:
		fi.out = fi.ret
	}
	for range f.Params {
		fi.params = append(fi.params, a.s.newVar())
	}
	// arguments object token and element var.
	argsTok := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
	fi.argsElem = a.propVar(argsTok, "$elem")
	a.s.addToken(a.protoVar(argsTok), a.arrayProto)
	fi.argsTok = argsTok
	if f.RestIdx >= 0 {
		restTok := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
		fi.restElem = a.propVar(restTok, "$elem")
		a.s.addToken(a.protoVar(restTok), a.arrayProto)
		a.s.addToken(fi.params[f.RestIdx], restTok)
	}
	a.fnInfos[t] = fi
	return fi
}

// globalVar returns the (shared) binding variable of a global name.
func (a *analyzer) globalVar(name string) Var {
	if v, ok := a.globals[name]; ok {
		return v
	}
	v := a.s.newVar()
	a.globals[name] = v
	return v
}

// dynReadVar returns the result variable for a dynamic read site.
func (a *analyzer) dynReadVar(site loc.Loc) Var {
	if v, ok := a.dynReads[site]; ok {
		return v
	}
	v := a.s.newVar()
	a.dynReads[site] = v
	return v
}

// strArg returns the string-literal value of argument i at a call site,
// recorded during generation.
func (a *analyzer) strArg(site loc.Loc, i int) (string, bool) {
	v, ok := a.strArgs[site][i]
	return v, ok
}

// ----------------------------------------------------------- load and store

// addLoad adds the constraint that reads of prop on every object in
// ⟦base⟧ (following prototype chains) flow into dst.
func (a *analyzer) addLoad(base Var, prop string, dst Var) {
	prev := a.pushCtx(RuleLoad, loc.Loc{}, prop)
	a.onTokenCtx(base, func(t Token) { a.loadFromToken(t, prop, dst) })
	a.popCtx(prev)
}

func (a *analyzer) loadFromToken(t Token, prop string, dst Var) {
	key := loadKey{t, prop, dst}
	if a.loadSeen[key] {
		return
	}
	a.loadSeen[key] = true
	if a.journal != nil {
		a.journal.loadSeen = append(a.journal.loadSeen, key)
	}
	info := a.tokens[t]
	if info.kind == tokNative && nativeHasMember(info.name, prop) {
		// Property reads on natives yield native member tokens (Math.floor,
		// Array.prototype.forEach, …), created lazily. Prototype tokens
		// only expose their actual members — otherwise every unresolved
		// property read on a user object would spuriously "resolve" via
		// the Object.prototype fallthrough.
		a.s.addToken(dst, a.nativeToken(info.name+"."+prop))
	}
	a.s.addEdge(a.propVar(t, prop), dst)
	// Prototype chain. Registration inherits the ambient rule context (the
	// originating load/elem-read/native rule) into the nested trigger.
	a.onTokenCtx(a.protoVar(t), func(pt Token) { a.loadFromToken(pt, prop, dst) })
}

// elemRead wires the element-conflation rule for a computed property read
// x[k]: every non-native token in ⟦base⟧ contributes its "$elem"
// pseudo-property — the conflated element set that array literals, spreads,
// and the modeled Array.prototype natives already read and write — to the
// read's destination. Without it the two halves of the array model
// disagree: elements stored through push/unshift/splice are reachable via
// forEach or slice, yet invisible to a direct stack[i] read, which used to
// produce only a hint-fed dynamic-read variable. Native tokens are skipped:
// their members are exposed by name only (see loadFromToken), and
// conflating them under $elem would spuriously resolve arbitrary computed
// reads on Math and friends.
func (a *analyzer) elemRead(base, dst Var, site loc.Loc) {
	prev := a.pushCtx(RuleElemRead, site, "")
	a.onTokenCtx(base, func(t Token) {
		if a.tokens[t].kind == tokNative {
			return
		}
		a.loadFromToken(t, "$elem", dst)
	})
	a.popCtx(prev)
}

// addStore adds the constraint ⟦val⟧ ⊆ ⟦t.prop⟧ for every t in ⟦base⟧.
func (a *analyzer) addStore(base Var, prop string, val Var) {
	prev := a.pushCtx(RuleStore, loc.Loc{}, prop)
	a.onTokenCtx(base, func(t Token) {
		if a.tokens[t].kind == tokNative {
			return // writes to natives are not tracked
		}
		a.s.addEdge(val, a.propVar(t, prop))
	})
	a.popCtx(prev)
}
