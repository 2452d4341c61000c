// Package approx implements approximate interpretation (paper §3): a fully
// automatic dynamic pre-analysis based on forced execution that infers
// likely determinate facts (hints) about dynamic property accesses.
//
// A worklist is seeded with the program's modules; executing an item
// discovers function definitions, which are scheduled and later forced with
// the proxy value p* bound to this, arguments, and all parameters
// (f.apply(w, p*)). Each function definition is forced at most once.
// Observed dynamic property reads and writes produce the read hints ℋ_R and
// write hints ℋ_W consumed by the static analysis (package static).
package approx

import (
	"errors"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/fault"
	"repro/internal/hints"
	"repro/internal/interp"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/value"
)

// Options tunes the forced-execution budgets.
type Options struct {
	// MaxLoopIters bounds total loop iterations per worklist item
	// (default 20000). The paper aborts long-running executions the same
	// way; lowering it trades hints for speed (§5).
	MaxLoopIters int64
	// MaxDepth bounds the call-stack depth per item (default 200).
	MaxDepth int
	// ForceBranches enables the §6 "approximate interpretation of function
	// fragments" extension: while forcing a function, the untaken branch
	// of each if/else executes as well, discovering definitions behind
	// conditions forced execution cannot satisfy. Off by default — it
	// trades extra coverage (and hints) for more approximation.
	ForceBranches bool
	// SkipForcingIn, when non-nil, suppresses the forcing of function
	// definitions in files for which it returns true (their modules still
	// load and execute concretely). RunWithCache uses it to avoid re-
	// forcing library code whose hints are already cached (§6 reuse).
	SkipForcingIn func(file string) bool
	// Deadline bounds the wall-clock time of each worklist item (0 =
	// unlimited). An item that trips it is aborted and recorded as a
	// deadline fault for its module; the run continues with the next item.
	Deadline time.Duration
	// MaxSteps bounds the interpreter steps per worklist item (0 =
	// unlimited); the allocation-proportional companion to Deadline.
	MaxSteps int64
	// WrapHooks, when non-nil, wraps the analyzer's own observation hooks
	// before they are installed. The fault-injection harness
	// (internal/faultinject) uses it to panic at the Nth observed event.
	WrapHooks func(interp.Hooks) interp.Hooks
}

// maxItems bounds the total number of worklist items processed, as a safety
// net for generated corpora.
const maxItems = 100000

func (o Options) withDefaults() Options {
	if o.MaxLoopIters == 0 {
		o.MaxLoopIters = 20000
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 200
	}
	return o
}

// Result is the outcome of one approximate-interpretation run.
type Result struct {
	Hints *hints.Hints

	// FunctionsTotal is the number of function definitions in the program
	// source (all packages).
	FunctionsTotal int
	// FunctionsVisited is the number of function definitions executed
	// (the paper reports ~60% of functions visited).
	FunctionsVisited int
	// ModulesLoaded is the number of modules executed.
	ModulesLoaded int
	// ItemsProcessed counts worklist items.
	ItemsProcessed int
	// Aborted counts items stopped by the execution budget.
	Aborted int
	// Failed counts items that ended with an uncaught exception.
	Failed int
	// Faults are the contained failures of the run: recovered panics,
	// deadline/step aborts, unparsable modules. Hints observed before each
	// fault are preserved in Hints — they are genuine observations, exactly
	// like those of an execution later aborted by the loop budget — but the
	// faulted modules are candidates for degradation to baseline-only
	// constraints downstream (static.Options.DegradeFiles).
	Faults []fault.Record
	// Duration is the wall-clock time of the run.
	Duration time.Duration

	// ModulesSeen maps every module path whose top-level code the
	// interpreter executed to true. Root-cause attribution uses it to tell
	// "this allocator ran with a different value" (lenient divergence) from
	// "this allocator never ran at all" (missing hint).
	ModulesSeen map[string]bool
	// VisitedFuncs maps the function-definition locations the interpreter
	// executed (the paper's Visited set, program code and built-ins alike).
	VisitedFuncs map[loc.Loc]bool
	// AbortedIn counts budget aborts per module, so attribution can tell
	// whether a module's observations were cut short.
	AbortedIn map[string]int
}

// FaultedModules returns the modules attributed a fault, as the degradation
// set for static.Options.DegradeFiles. Nil when the run was fault-free.
func (r *Result) FaultedModules() map[string]bool { return fault.ModuleSet(r.Faults) }

// VisitedRatio returns the fraction of function definitions executed.
func (r *Result) VisitedRatio() float64 {
	if r.FunctionsTotal == 0 {
		return 0
	}
	return float64(r.FunctionsVisited) / float64(r.FunctionsTotal)
}

// workItem is a pending module or function value.
type workItem struct {
	module string        // non-empty for module items
	fn     *value.Object // non-nil for function items
}

// collector implements interp.Hooks, accumulating hints and scheduling
// discovered functions.
type collector struct {
	interp.NopHooks
	a *analyzer
}

type analyzer struct {
	opts     Options
	it       *interp.Interp
	registry *modules.Registry
	project  *modules.Project
	h        *hints.Hints

	worklist []workItem
	// visited holds function-definition locations and module paths already
	// processed (the paper's Visited set).
	visited map[loc.Loc]bool
	modSeen map[string]bool
	// scheduled avoids flooding the worklist with many closures of the
	// same definition.
	scheduled map[loc.Loc]bool
	// thisMap is the paper's this: Object → Object map, recorded at static
	// property writes of user functions.
	thisMap map[*value.Object]*value.Object

	visitedFns int
	modules    int
	aborted    int
	abortedIn  map[string]int
	failed     int
	faults     []fault.Record
}

// Run performs approximate interpretation of the project and returns the
// collected hints and statistics.
func Run(project *modules.Project, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	a := &analyzer{
		opts:      opts,
		h:         hints.New(),
		visited:   map[loc.Loc]bool{},
		modSeen:   map[string]bool{},
		scheduled: map[loc.Loc]bool{},
		thisMap:   map[*value.Object]*value.Object{},
		abortedIn: map[string]int{},
	}
	a.project = project
	var hooks interp.Hooks = &collector{a: a}
	if opts.WrapHooks != nil {
		hooks = opts.WrapHooks(hooks)
	}
	a.it = interp.New(interp.Options{
		Hooks:        hooks,
		Approximate:  true,
		MaxLoopIters: opts.MaxLoopIters,
		MaxDepth:     opts.MaxDepth,
		Deadline:     opts.Deadline,
		MaxSteps:     opts.MaxSteps,
	})
	a.registry = modules.NewRegistry(project, a.it)
	a.registry.Sandbox = true

	start := time.Now()

	// Seed the worklist with the application-code modules (paper §3:
	// "initialized with a collection of JavaScript modules from the
	// program to be analyzed"). Test entries count as application code:
	// the dynamic ground truth executes them, so hints anchored in them
	// (callbacks registered from tests, dynamic keys fed by tests) must be
	// observable too — otherwise every test-only flow is a guaranteed
	// soundness gap.
	seeds := project.MainEntries
	if len(seeds) == 0 {
		for _, p := range project.SortedPaths() {
			if project.IsMainModule(p) {
				seeds = append(seeds, p)
			}
		}
	}
	seeds = append(append([]string{}, seeds...), project.TestEntries...)
	seen := map[string]bool{}
	for _, m := range seeds {
		if seen[m] {
			continue
		}
		seen[m] = true
		a.worklist = append(a.worklist, workItem{module: m})
	}

	items := 0
	for len(a.worklist) > 0 && items < maxItems {
		item := a.worklist[0]
		a.worklist = a.worklist[1:]
		items++
		a.runItem(item)
	}

	// ModulesSeen covers both worklist module items and modules executed
	// transitively through require() during another item.
	modulesSeen := make(map[string]bool, len(a.modSeen))
	for m := range a.modSeen {
		modulesSeen[m] = true
	}
	for _, m := range a.registry.LoadedPaths() {
		modulesSeen[m] = true
	}
	visitedFuncs := make(map[loc.Loc]bool, len(a.visited))
	for l := range a.visited {
		visitedFuncs[l] = true
	}
	return &Result{
		Hints:            a.h,
		FunctionsTotal:   countFunctions(project),
		FunctionsVisited: a.visitedFns,
		ModulesLoaded:    a.modules,
		ItemsProcessed:   items,
		Aborted:          a.aborted,
		Failed:           a.failed,
		Faults:           a.faults,
		Duration:         time.Since(start),
		ModulesSeen:      modulesSeen,
		VisitedFuncs:     visitedFuncs,
		AbortedIn:        a.abortedIn,
	}, nil
}

// fault appends a contained-failure record for the current phase.
func (a *analyzer) fault(module string, kind fault.Kind, detail string) {
	a.faults = append(a.faults, fault.Record{
		Phase:  "approx",
		Module: module,
		Kind:   kind,
		Detail: detail,
	})
}

// itemModule is the module a worklist item executes in, for fault
// attribution: the module itself, or the file of the forced function.
func itemModule(item workItem) string {
	if item.module != "" {
		return item.module
	}
	if item.fn != nil && item.fn.Alloc.Valid() {
		return item.fn.Alloc.File
	}
	return ""
}

func (a *analyzer) runItem(item workItem) {
	// Per-item panic recovery: a panic anywhere under this item — an
	// interpreter bug, a hook bug, or an injected chaos fault — is contained
	// here, recorded against the responsible module, and the run continues
	// with the next worklist item. Hints observed before the panic were
	// already accumulated through the hooks, matching the paper's lenient
	// semantics of keeping everything learned before an abort.
	defer func() {
		if r := recover(); r != nil {
			// ForceCall may have been unwound before its paired reset ran.
			a.it.SetForceBranches(false)
			a.failed++
			mod := fault.PanicModule(r, itemModule(item))
			a.fault(mod, fault.KindPanic, fault.PanicDetail(r))
			// The panic also aborted the enclosing worklist item: when the
			// responsible module differs from the item's module (e.g. a
			// required module's top-level code faulted while the requiring
			// module executed), the item's module lost the rest of its own
			// observations, so it is degraded too.
			if im := itemModule(item); im != mod {
				a.fault(im, fault.KindCollateral, "item aborted by fault in "+mod)
			}
		}
	}()
	a.it.ResetBudget()
	var err error
	switch {
	case item.module != "":
		if a.modSeen[item.module] {
			return
		}
		a.modSeen[item.module] = true
		a.modules++
		_, err = a.registry.Load(item.module)
	case item.fn != nil:
		l := item.fn.Alloc
		if !l.Valid() || a.visited[l] {
			return
		}
		a.markVisited(item.fn)
		w := a.forceReceiver(item.fn)
		if a.opts.ForceBranches {
			// Branch forcing applies only while forcing functions; module
			// loading stays faithful to concrete semantics.
			a.it.SetForceBranches(true)
		}
		_, err = a.it.ForceCall(item.fn, w)
		a.it.SetForceBranches(false)
	}
	if err != nil {
		var budget *interp.BudgetError
		var thrown *interp.Thrown
		switch {
		case errors.As(err, &budget):
			a.aborted++
			a.abortedIn[itemModule(item)]++
			// Loop/stack budget aborts are the paper's normal operation;
			// deadline and step aborts are containment of hangs, so they
			// additionally degrade the module.
			switch budget.Reason {
			case interp.ReasonDeadline:
				a.fault(itemModule(item), fault.KindDeadline, err.Error())
			case interp.ReasonSteps:
				a.fault(itemModule(item), fault.KindSteps, err.Error())
			}
		case errors.As(err, &thrown):
			a.failed++
			// A module item that threw because its source does not parse is
			// a containment event, not a program exception: record it so the
			// corrupt file degrades to baseline-only constraints.
			if item.module != "" {
				if _, perr := a.project.Parse(item.module); perr != nil {
					a.fault(item.module, fault.KindParse, perr.Error())
				}
			}
		default:
			a.failed++
			a.fault(itemModule(item), fault.KindError, err.Error())
		}
	}
}

// forceReceiver picks the this value for forcing fn: the object recorded in
// the this-map (wrapped so absent properties delegate to p*), or p*.
func (a *analyzer) forceReceiver(fn *value.Object) value.Value {
	base := a.thisMap[fn]
	if base == nil {
		return a.it.Proxy()
	}
	// Wrap: reads find base's properties through the prototype chain and
	// fall back to p* when absent (paper: "we wrap it into a proxy object
	// that delegates to p* for absent properties").
	wrapper := value.NewObject(base)
	wrapper.ProxyTarget = base
	return wrapper
}

func (a *analyzer) markVisited(fn *value.Object) {
	l := fn.Alloc
	if !l.Valid() || a.visited[l] {
		return
	}
	a.visited[l] = true
	// The visited-functions statistic counts program code only, matching
	// FunctionsTotal (built-in node: library functions are excluded).
	if !strings.HasPrefix(l.File, "node:") {
		a.visitedFns++
	}
}

// isUserFunction reports whether fn is a function defined in program code
// (not a native, not from the built-in node: library sources).
func isUserFunction(fn *value.Object) bool {
	if fn == nil || fn.Fn == nil || fn.Fn.Decl == nil {
		return false
	}
	return !strings.HasPrefix(fn.Alloc.File, "node:")
}

// ------------------------------------------------------------------- hooks

// FunctionDefined schedules newly discovered function definitions; a
// definition already visited (or already queued) is not scheduled again.
func (c *collector) FunctionDefined(fn *value.Object, l loc.Loc) {
	a := c.a
	if !l.Valid() || a.visited[l] || a.scheduled[l] {
		return
	}
	if strings.HasPrefix(l.File, "node:") {
		// Built-in library functions are modeled statically; forcing them
		// adds noise without hints (they are the "standard library" in the
		// paper's sense).
		return
	}
	if a.opts.SkipForcingIn != nil && a.opts.SkipForcingIn(l.File) {
		return
	}
	a.scheduled[l] = true
	a.worklist = append(a.worklist, workItem{fn: fn})
}

// BeforeCall marks functions visited when they are (transitively) executed,
// so the worklist does not force them again (paper §3, call rule 4).
func (c *collector) BeforeCall(site loc.Loc, callee *value.Object, this value.Value, args []value.Value) {
	if callee.Fn != nil && callee.Fn.Decl != nil {
		c.a.markVisited(callee)
	}
}

// DynamicRead adds ℓ′ = loc(result) to ℋ_R(ℓ) when the result is an object
// with a recorded allocation site.
func (c *collector) DynamicRead(site loc.Loc, base value.Value, key string, result value.Value) {
	// §6 "unknown function arguments" extension: a dynamic read on the
	// proxy value with a concrete property name becomes a property-name
	// hint, letting the static analysis treat the operation as a static
	// read of that name.
	if bo, ok := base.(*value.Object); ok && bo.IsProxy() {
		c.a.h.AddPropRead(site, key)
		return
	}
	obj, ok := result.(*value.Object)
	if !ok || obj.IsProxy() {
		return
	}
	c.a.h.AddRead(site, obj.Alloc)
}

// DynamicWrite adds (loc(base), p, loc(val)) to ℋ_W when both allocation
// sites are recorded.
func (c *collector) DynamicWrite(site loc.Loc, base value.Value, key string, val value.Value) {
	bo, ok := base.(*value.Object)
	if !ok || bo.IsProxy() {
		return
	}
	vo, ok := val.(*value.Object)
	if !ok || vo.IsProxy() {
		return
	}
	target := bo.Alloc
	// Writes through a this-wrapper attribute to the wrapped object.
	if !target.Valid() && bo.ProxyTarget != nil {
		target = bo.ProxyTarget.Alloc
	}
	c.a.h.AddWrite(site, target, key, vo.Alloc)
}

// StaticWrite maintains the this-map: when a user function is written to a
// static property of an object, that object becomes the function's guessed
// receiver for later forcing (paper §3, static property writes).
func (c *collector) StaticWrite(base value.Value, prop string, val value.Value) {
	fn, ok := val.(*value.Object)
	if !ok || !isUserFunction(fn) {
		return
	}
	bo, ok := base.(*value.Object)
	if !ok || bo.IsProxy() {
		return
	}
	if _, exists := c.a.thisMap[fn]; !exists {
		c.a.thisMap[fn] = bo
	}
}

// EvalCode records §6 dynamically-generated-code hints: the observed
// program text can be analyzed statically as additional code.
func (c *collector) EvalCode(module, source string) {
	if strings.HasPrefix(module, "node:") || strings.Contains(module, "#eval") {
		return
	}
	c.a.h.AddEval(module, source)
}

// RequireResolved records dynamic module-load hints (paper §3 extension).
func (c *collector) RequireResolved(site loc.Loc, name string, dynamic bool) {
	if !dynamic || !site.Valid() {
		return
	}
	path, err := c.a.registry.Resolve(c.a.it.CurrentModule(), name)
	if err != nil {
		return
	}
	c.a.h.AddModule(site, path)
}

// countFunctions statically counts function definitions in all project
// files (used for the visited-functions ratio reported in §5). Unparsable
// (corrupt) files contribute no functions instead of failing the run; they
// are already recorded as parse faults by the worklist.
func countFunctions(project *modules.Project) int {
	total := 0
	for _, path := range project.SortedPaths() {
		prog, err := project.Parse(path)
		if err != nil {
			continue
		}
		total += len(ast.Functions(prog))
	}
	return total
}
