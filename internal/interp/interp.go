// Package interp implements a concrete tree-walking interpreter for the
// JavaScript subset.
//
// The interpreter is the substrate shared by three clients:
//
//   - plain concrete execution (cmd/jsrun, tests);
//   - dynamic call-graph construction (internal/dyncg), via Hooks;
//   - approximate interpretation (internal/approx), via Hooks plus the
//     proxy value p*, lenient error recovery, execution budgets, and the
//     ForceCall entry point — the forced-execution machinery of the paper.
package interp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/loc"
	"repro/internal/value"
)

// Thrown wraps a JavaScript exception value as a Go error.
type Thrown struct{ Value value.Value }

func (t *Thrown) Error() string {
	return "uncaught exception: " + value.ToString(t.Value)
}

// BudgetError reasons.
const (
	// ReasonLoopIters: the total loop-iteration budget (Options.MaxLoopIters)
	// is spent. In lenient mode this budget instead exits the offending loop.
	ReasonLoopIters = "loop iterations"
	// ReasonStackDepth: the call-stack bound (Options.MaxDepth) is exceeded.
	// In lenient mode the overflowing call instead evaluates to p* and the
	// stack unwinds normally.
	ReasonStackDepth = "stack depth"
	// ReasonDeadline: the wall-clock deadline (Options.Deadline) passed.
	ReasonDeadline = "wall-clock deadline"
	// ReasonSteps: the total step budget (Options.MaxSteps) is spent.
	ReasonSteps = "step budget"
)

// BudgetError reports that a forced execution exceeded one of its budgets:
// stack depth, total loop iterations, total interpreter steps, or the
// wall-clock deadline. It is not catchable by JavaScript try/catch, so it
// aborts the whole forced execution, as in the paper ("execution is aborted
// if the stack size or the total number of loop iterations reaches a
// predefined limit"). Unlike the loop budget, the deadline and step budgets
// abort even in lenient mode: they exist to contain hangs and runaway
// allocation that the structural budgets cannot see.
type BudgetError struct{ Reason string }

func (b *BudgetError) Error() string { return "execution budget exceeded: " + b.Reason }

// IsDeadline reports whether the budget that tripped was the wall-clock
// deadline (as opposed to a structural loop/stack/step budget).
func (b *BudgetError) IsDeadline() bool { return b.Reason == ReasonDeadline }

// ModuleHost resolves require() calls. The modules package implements it.
type ModuleHost interface {
	// Require resolves and loads module name from the module at path from,
	// returning its exports value.
	Require(from, name string) (value.Value, error)
}

// Options configures an interpreter.
type Options struct {
	// Hooks receives observation events; nil means no observation.
	Hooks Hooks
	// Stdout receives console output; nil discards it.
	Stdout io.Writer
	// MaxDepth bounds the call-stack depth (0 means the default of 2500).
	MaxDepth int
	// MaxLoopIters bounds the *total* number of loop iterations across an
	// execution, 0 meaning unlimited. The approximate interpreter sets it.
	MaxLoopIters int64
	// Deadline bounds the wall-clock time of an execution unit, 0 meaning
	// unlimited. The clock restarts on ResetBudget, so with the approximate
	// interpreter it is a per-worklist-item deadline. Tripping it is a hard
	// abort (a BudgetError with ReasonDeadline) even in lenient mode: it is
	// the backstop for hangs the loop/stack budgets cannot see (e.g. spins
	// inside native callbacks, pathological re-parsing).
	Deadline time.Duration
	// MaxSteps bounds the total number of interpreter steps (expression
	// evaluations) per execution unit, 0 meaning unlimited. A portable,
	// deterministic stand-in for an allocation budget: every allocation is
	// driven by some expression, so bounding steps bounds allocation.
	// Resets on ResetBudget. Tripping it aborts even in lenient mode.
	MaxSteps int64
	// Approximate enables approximate-interpretation mode: the interpreter
	// allocates the global proxy object p* and gives it the semantics of
	// Section 3 of the paper, and recovers from errors the way forced
	// execution needs — property accesses on undefined/null and calls to
	// non-functions yield p* instead of throwing TypeError.
	Approximate bool
}

type ctrlKind int

const (
	ctrlNormal ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type completion struct {
	kind  ctrlKind
	value value.Value
}

// Interp is an interpreter instance with its own global object and heap.
type Interp struct {
	hooks  Hooks
	stdout io.Writer

	// ModuleHost is consulted by require(); the modules package sets it.
	ModuleHost ModuleHost

	globalScope *value.Scope
	global      *value.Object
	protos      prototypes

	maxDepth     int
	maxLoopIters int64
	depth        int
	loopIters    int64

	// Wall-clock/step budgets (0 = unlimited). budgetActive caches whether
	// either is configured so the evalExpr hot path pays a single bool test
	// when they are not. budgetTick amortizes time.Now() calls.
	deadlineDur  time.Duration
	deadlineAt   time.Time
	maxSteps     int64
	steps        int64
	budgetTick   int64
	budgetActive bool

	lenient       bool
	proxy         *value.Object // p*, non-nil in approximate mode
	forceBranches bool          // §6: execute untaken if/else branches too

	currentModule string
	evalDepth     int
	evalCount     int
	callSiteLoc   loc.Loc // call site of the native currently executing

	mockFn       *value.Object // shared sandbox mock function
	rngState     uint64        // deterministic Math.random state
	clock        int64         // deterministic Date counter (ms)
	promiseProto *value.Object // Promise.prototype (for async wrapping)

	generatorProto *value.Object // prototype of generator objects
	genSink        *genState     // yield sink of the generator body executing
}

type prototypes struct {
	object, function, array, str, number, boolean, err, regexp *value.Object
}

// New creates an interpreter with a fresh global environment.
func New(opts Options) *Interp {
	it := &Interp{
		hooks:        opts.Hooks,
		stdout:       opts.Stdout,
		maxDepth:     opts.MaxDepth,
		maxLoopIters: opts.MaxLoopIters,
		deadlineDur:  opts.Deadline,
		maxSteps:     opts.MaxSteps,
		lenient:      opts.Approximate,
		rngState:     0x9E3779B97F4A7C15,
	}
	it.budgetActive = it.deadlineDur > 0 || it.maxSteps > 0
	if it.deadlineDur > 0 {
		it.deadlineAt = time.Now().Add(it.deadlineDur)
	}
	if it.hooks == nil {
		it.hooks = NopHooks{}
	}
	if it.stdout == nil {
		it.stdout = io.Discard
	}
	if it.maxDepth == 0 {
		it.maxDepth = 2500
	}
	if opts.Approximate {
		it.proxy = &value.Object{Class: value.ClassProxy}
	}
	it.setupGlobals()
	return it
}

// Proxy returns the global proxy object p*, or nil outside approximate mode.
func (it *Interp) Proxy() *value.Object { return it.proxy }

// GlobalScope returns the global lexical scope.
func (it *Interp) GlobalScope() *value.Scope { return it.globalScope }

// Global implements value.Host.
func (it *Interp) Global() *value.Object { return it.global }

// ObjectProto returns Object.prototype (used by the modules package to
// create module/exports objects).
func (it *Interp) ObjectProto() *value.Object { return it.protos.object }

// FunctionProto returns Function.prototype.
func (it *Interp) FunctionProto() *value.Object { return it.protos.function }

// ResetBudget clears the accumulated loop-iteration, stack-depth, and step
// counters and restarts the wall-clock deadline; the approximate interpreter
// calls it between worklist items, so every budget in Options is per item.
// The paper bounds the total number of iterations per forced execution.
func (it *Interp) ResetBudget() {
	it.loopIters = 0
	it.depth = 0
	it.steps = 0
	if it.deadlineDur > 0 {
		it.deadlineAt = time.Now().Add(it.deadlineDur)
	}
}

// SetForceBranches toggles the §6 "function fragments" extension: when on,
// the untaken branch of each if/else also executes (exceptions swallowed),
// so definitions hidden behind conditions forced execution cannot satisfy
// are still discovered. The approximate interpreter enables it only while
// forcing functions, never during concrete module loading.
func (it *Interp) SetForceBranches(on bool) { it.forceBranches = on }

// NewPlainObject allocates an object with Object.prototype.
func (it *Interp) NewPlainObject() *value.Object { return value.NewObject(it.protos.object) }

// NewArrayObject allocates an array with Array.prototype.
func (it *Interp) NewArrayObject(elems []value.Value) *value.Object {
	return value.NewArray(it.protos.array, elems)
}

// NewNativeFunction allocates a native function object.
func (it *Interp) NewNativeFunction(name string, fn value.NativeFunc) *value.Object {
	return value.NewNative(it.protos.function, name, fn)
}

// NewError implements value.Host.
func (it *Interp) NewError(name, msg string) *value.Object {
	e := value.NewObject(it.protos.err)
	e.Class = value.ClassError
	e.Set("name", value.String(name))
	e.Set("message", value.String(msg))
	e.Set("stack", value.String(name+": "+msg+"\n    at <anonymous>"))
	return e
}

// ThrowError implements value.Host.
func (it *Interp) ThrowError(name, msg string) error {
	return &Thrown{Value: it.NewError(name, msg)}
}

// CurrentModule returns the path of the module currently executing.
func (it *Interp) CurrentModule() string { return it.currentModule }

// RunProgram executes the statements of a parsed module in the given scope
// with the given this-binding, applying var/function hoisting. It is the
// entry point used by the modules package for module functions.
func (it *Interp) RunProgram(prog *ast.Program, env *value.Scope, this value.Value) (value.Value, error) {
	savedModule := it.currentModule
	it.currentModule = prog.File
	defer func() { it.currentModule = savedModule }()
	if err := it.hoist(prog.Body, env, this); err != nil {
		return nil, err
	}
	var last value.Value = value.Undefined{}
	for _, s := range prog.Body {
		c, err := it.execStmt(s, env, this)
		if err != nil {
			return nil, err
		}
		if c.kind != ctrlNormal {
			break
		}
		if c.value != nil {
			last = c.value
		}
	}
	return last, nil
}

// ----------------------------------------------------------------- hoisting

// hoist implements declaration hoisting for a function or module body:
// every var-declared name (at any block depth, not crossing function
// boundaries) is bound to undefined, and every function declaration is
// evaluated and bound.
func (it *Interp) hoist(body []ast.Stmt, env *value.Scope, this value.Value) error {
	var varNames []string
	var fnDecls []*ast.FuncDecl
	var scan func(ss []ast.Stmt)
	scanStmt := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.VarDecl:
			if s.Kind == ast.Var {
				for _, d := range s.Decls {
					varNames = append(varNames, d.Name)
				}
			}
		case *ast.FuncDecl:
			fnDecls = append(fnDecls, s)
		case *ast.BlockStmt:
			scan(s.Body)
		case *ast.IfStmt:
			scan([]ast.Stmt{s.Then})
			if s.Else != nil {
				scan([]ast.Stmt{s.Else})
			}
		case *ast.WhileStmt:
			scan([]ast.Stmt{s.Body})
		case *ast.DoWhileStmt:
			scan([]ast.Stmt{s.Body})
		case *ast.ForStmt:
			if s.Init != nil {
				scan([]ast.Stmt{s.Init})
			}
			scan([]ast.Stmt{s.Body})
		case *ast.ForInStmt:
			if s.DeclKind == ast.Var {
				varNames = append(varNames, s.Name)
			}
			scan([]ast.Stmt{s.Body})
		case *ast.TryStmt:
			scan(s.Block.Body)
			if s.Catch != nil {
				scan(s.Catch.Body)
			}
			if s.Finally != nil {
				scan(s.Finally.Body)
			}
		case *ast.SwitchStmt:
			for _, c := range s.Cases {
				scan(c.Body)
			}
		}
	}
	scan = func(ss []ast.Stmt) {
		for _, s := range ss {
			scanStmt(s)
		}
	}
	scan(body)
	for _, name := range varNames {
		if !env.HasLocal(name) {
			env.Declare(name, value.Undefined{})
		}
	}
	for _, fd := range fnDecls {
		fn := it.makeFunction(fd.Fn, env, this)
		env.Declare(fd.Fn.Name, fn)
	}
	return nil
}

// --------------------------------------------------------------- statements

func (it *Interp) execStmt(s ast.Stmt, env *value.Scope, this value.Value) (completion, error) {
	switch s := s.(type) {
	case *ast.VarDecl:
		for _, d := range s.Decls {
			if d.Init == nil && s.Kind == ast.Var {
				// `var x;` does not overwrite an existing binding (notably a
				// hoisted function declaration of the same name).
				continue
			}
			var v value.Value = value.Undefined{}
			if d.Init != nil {
				var err error
				v, err = it.evalExpr(d.Init, env, this)
				if err != nil {
					return completion{}, err
				}
			}
			if s.Kind == ast.Var {
				// var: assign to the hoisted binding if visible, otherwise
				// declare here (module/function scope was hoisted already).
				if !env.SetExisting(d.Name, v) {
					env.Declare(d.Name, v)
				}
			} else {
				env.Declare(d.Name, v)
			}
		}
		return completion{}, nil

	case *ast.FuncDecl:
		// Already evaluated during hoisting of the enclosing body if it is
		// reachable from there; nested-in-block declarations were hoisted
		// too (annex-B style), so nothing remains to do.
		return completion{}, nil

	case *ast.ExprStmt:
		v, err := it.evalExpr(s.X, env, this)
		if err != nil {
			return completion{}, err
		}
		return completion{value: v}, nil

	case *ast.BlockStmt:
		return it.execBlock(s, value.NewScope(env), this)

	case *ast.EmptyStmt:
		return completion{}, nil

	case *ast.IfStmt:
		cond, err := it.evalExpr(s.Cond, env, this)
		if err != nil {
			return completion{}, err
		}
		taken, untaken := s.Then, s.Else
		if !value.ToBool(cond) {
			taken, untaken = s.Else, s.Then
		}
		var c completion
		if taken != nil {
			c, err = it.execStmt(taken, env, this)
			if err != nil {
				return completion{}, err
			}
		}
		// §6 "function fragments": also run the branch the condition did
		// not select, swallowing its exceptions, so code hidden behind
		// unsatisfiable conditions is still explored.
		if it.forceBranches && untaken != nil {
			if _, ferr := it.execStmt(untaken, env, this); ferr != nil {
				var thrown *Thrown
				if !errors.As(ferr, &thrown) {
					return completion{}, ferr // budget errors still abort
				}
			}
		}
		return c, nil

	case *ast.WhileStmt:
		for {
			cond, err := it.evalExpr(s.Cond, env, this)
			if err != nil {
				return completion{}, err
			}
			if !value.ToBool(cond) {
				return completion{}, nil
			}
			if err := it.chargeLoop(); err != nil {
				if err == errLoopExhausted {
					return completion{}, nil
				}
				return completion{}, err
			}
			c, err := it.execStmt(s.Body, env, this)
			if err != nil {
				return completion{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return completion{}, nil
			case ctrlReturn:
				return c, nil
			}
		}

	case *ast.DoWhileStmt:
		for {
			if err := it.chargeLoop(); err != nil {
				if err == errLoopExhausted {
					return completion{}, nil
				}
				return completion{}, err
			}
			c, err := it.execStmt(s.Body, env, this)
			if err != nil {
				return completion{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return completion{}, nil
			case ctrlReturn:
				return c, nil
			}
			cond, err := it.evalExpr(s.Cond, env, this)
			if err != nil {
				return completion{}, err
			}
			if !value.ToBool(cond) {
				return completion{}, nil
			}
		}

	case *ast.ForStmt:
		loopEnv := value.NewScope(env)
		if s.Init != nil {
			if _, err := it.execStmt(s.Init, loopEnv, this); err != nil {
				return completion{}, err
			}
		}
		for {
			if s.Cond != nil {
				cond, err := it.evalExpr(s.Cond, loopEnv, this)
				if err != nil {
					return completion{}, err
				}
				if !value.ToBool(cond) {
					return completion{}, nil
				}
			}
			if err := it.chargeLoop(); err != nil {
				if err == errLoopExhausted {
					return completion{}, nil
				}
				return completion{}, err
			}
			c, err := it.execStmt(s.Body, loopEnv, this)
			if err != nil {
				return completion{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return completion{}, nil
			case ctrlReturn:
				return c, nil
			}
			if s.Post != nil {
				if _, err := it.evalExpr(s.Post, loopEnv, this); err != nil {
					return completion{}, err
				}
			}
		}

	case *ast.ForInStmt:
		return it.execForIn(s, env, this)

	case *ast.ReturnStmt:
		var v value.Value = value.Undefined{}
		if s.X != nil {
			var err error
			v, err = it.evalExpr(s.X, env, this)
			if err != nil {
				return completion{}, err
			}
		}
		return completion{kind: ctrlReturn, value: v}, nil

	case *ast.BreakStmt:
		return completion{kind: ctrlBreak}, nil

	case *ast.ContinueStmt:
		return completion{kind: ctrlContinue}, nil

	case *ast.ThrowStmt:
		v, err := it.evalExpr(s.X, env, this)
		if err != nil {
			return completion{}, err
		}
		return completion{}, &Thrown{Value: v}

	case *ast.TryStmt:
		return it.execTry(s, env, this)

	case *ast.SwitchStmt:
		return it.execSwitch(s, env, this)

	default:
		return completion{}, fmt.Errorf("interp: unknown statement %T", s)
	}
}

func (it *Interp) execBlock(b *ast.BlockStmt, env *value.Scope, this value.Value) (completion, error) {
	for _, s := range b.Body {
		c, err := it.execStmt(s, env, this)
		if err != nil {
			return completion{}, err
		}
		if c.kind != ctrlNormal {
			return c, nil
		}
	}
	return completion{}, nil
}

func (it *Interp) execForIn(s *ast.ForInStmt, env *value.Scope, this value.Value) (completion, error) {
	obj, err := it.evalExpr(s.Obj, env, this)
	if err != nil {
		return completion{}, err
	}
	loopEnv := value.NewScope(env)
	loopEnv.Declare(s.Name, value.Undefined{})
	assign := func(v value.Value) {
		if s.DeclKind != "" {
			loopEnv.Declare(s.Name, v)
			return
		}
		if !loopEnv.SetExisting(s.Name, v) {
			it.globalScope.Declare(s.Name, v)
		}
	}
	var items []value.Value
	switch o := obj.(type) {
	case *value.Object:
		if o.IsProxy() {
			return completion{}, nil // unknown value: iterate nothing
		}
		// Iterating a user Proxy walks its target (no ownKeys trap support).
		for {
			up := userProxyOf(o)
			if up == nil {
				break
			}
			o = up.target
		}
		if s.IsOf {
			if gs, ok := o.HostData.(*genState); ok {
				// for-of over a generator consumes its remaining yields.
				items = append(items, gs.elems[gs.idx:]...)
				gs.idx = len(gs.elems)
			} else {
				switch o.Class {
				case value.ClassArray:
					items = append(items, o.Elems...)
				default:
					if it.lenient {
						return completion{}, nil
					}
					return completion{}, it.ThrowError("TypeError", "value is not iterable")
				}
			}
		} else {
			// for-in walks enumerable keys of the object and its prototypes.
			seen := map[string]bool{}
			for cur := o; cur != nil; cur = cur.Proto {
				for _, k := range cur.EnumerableKeys() {
					if !seen[k] {
						seen[k] = true
						items = append(items, value.String(k))
					}
				}
			}
		}
	case value.String:
		if s.IsOf {
			for _, r := range string(o) {
				items = append(items, value.String(string(r)))
			}
		} else {
			for i := range string(o) {
				items = append(items, value.String(fmt.Sprintf("%d", i)))
			}
		}
	case value.Undefined, value.Null:
		return completion{}, nil
	default:
		return completion{}, nil
	}
	for _, item := range items {
		if err := it.chargeLoop(); err != nil {
			if err == errLoopExhausted {
				return completion{}, nil
			}
			return completion{}, err
		}
		if item == nil {
			item = value.Undefined{}
		}
		assign(item)
		c, err := it.execStmt(s.Body, loopEnv, this)
		if err != nil {
			return completion{}, err
		}
		switch c.kind {
		case ctrlBreak:
			return completion{}, nil
		case ctrlReturn:
			return c, nil
		}
	}
	return completion{}, nil
}

func (it *Interp) execTry(s *ast.TryStmt, env *value.Scope, this value.Value) (completion, error) {
	c, err := it.execBlock(s.Block, value.NewScope(env), this)
	var thrown *Thrown
	if err != nil {
		if !errors.As(err, &thrown) {
			return completion{}, err // budget and host errors are not catchable
		}
		if s.Catch != nil {
			catchEnv := value.NewScope(env)
			if s.CatchParam != "" {
				catchEnv.Declare(s.CatchParam, thrown.Value)
			}
			c, err = it.execBlock(s.Catch, catchEnv, this)
		}
	}
	if s.Finally != nil {
		fc, ferr := it.execBlock(s.Finally, value.NewScope(env), this)
		if ferr != nil {
			return completion{}, ferr
		}
		if fc.kind != ctrlNormal {
			return fc, nil // finally overrides
		}
	}
	return c, err
}

func (it *Interp) execSwitch(s *ast.SwitchStmt, env *value.Scope, this value.Value) (completion, error) {
	disc, err := it.evalExpr(s.Disc, env, this)
	if err != nil {
		return completion{}, err
	}
	swEnv := value.NewScope(env)
	match := -1
	for i, c := range s.Cases {
		if c.Test == nil {
			continue
		}
		tv, err := it.evalExpr(c.Test, swEnv, this)
		if err != nil {
			return completion{}, err
		}
		if value.StrictEquals(disc, tv) {
			match = i
			break
		}
	}
	if match < 0 {
		for i, c := range s.Cases {
			if c.Test == nil {
				match = i
				break
			}
		}
	}
	if match < 0 {
		return completion{}, nil
	}
	for _, c := range s.Cases[match:] {
		for _, st := range c.Body {
			cc, err := it.execStmt(st, swEnv, this)
			if err != nil {
				return completion{}, err
			}
			switch cc.kind {
			case ctrlBreak:
				return completion{}, nil
			case ctrlReturn, ctrlContinue:
				return cc, nil
			}
		}
	}
	return completion{}, nil
}

// errLoopExhausted signals that the loop budget is spent in lenient
// (forced-execution) mode: the enclosing loop must exit as if its condition
// turned false, and execution continues after it. Aborting the whole item —
// the strict-mode behavior — would also discard the hints of every
// statement after the loop, statements that a concrete run of the same
// code may well reach (e.g. when the loop only spins under forced proxy
// semantics). Straight-line code stays budgeted by call depth.
var errLoopExhausted = errors.New("interp: loop budget exhausted")

func (it *Interp) chargeLoop() error {
	// The deadline must also be checked here: a `for(;;){}` with no
	// condition and an empty body never evaluates an expression, so
	// chargeLoop is the only per-iteration charge point it reaches. The
	// check is amortized (every 64 iterations) to keep time.Now() off the
	// per-iteration path.
	if it.deadlineDur > 0 {
		it.budgetTick++
		if it.budgetTick&63 == 0 && time.Now().After(it.deadlineAt) {
			return &BudgetError{Reason: ReasonDeadline}
		}
	}
	if it.maxLoopIters > 0 {
		it.loopIters++
		if it.loopIters > it.maxLoopIters {
			if it.lenient {
				return errLoopExhausted
			}
			return &BudgetError{Reason: ReasonLoopIters}
		}
	}
	return nil
}

// chargeStep accounts one interpreter step (an expression evaluation)
// against the step budget and, amortized, the wall-clock deadline. Only
// called when budgetActive, i.e. at least one of the two is configured.
func (it *Interp) chargeStep() error {
	if it.maxSteps > 0 {
		it.steps++
		if it.steps > it.maxSteps {
			return &BudgetError{Reason: ReasonSteps}
		}
	}
	if it.deadlineDur > 0 {
		it.budgetTick++
		if it.budgetTick&1023 == 0 && time.Now().After(it.deadlineAt) {
			return &BudgetError{Reason: ReasonDeadline}
		}
	}
	return nil
}

// -------------------------------------------------------------- expressions

func (it *Interp) evalExpr(e ast.Expr, env *value.Scope, this value.Value) (value.Value, error) {
	if it.budgetActive {
		if err := it.chargeStep(); err != nil {
			return nil, err
		}
	}
	switch e := e.(type) {
	case *ast.NumberLit:
		return value.Number(e.Value), nil
	case *ast.StringLit:
		return value.String(e.Value), nil
	case *ast.BoolLit:
		return value.Bool(e.Value), nil
	case *ast.NullLit:
		return value.Null{}, nil
	case *ast.UndefinedLit:
		return value.Undefined{}, nil
	case *ast.ThisExpr:
		if this == nil {
			return value.Undefined{}, nil
		}
		return this, nil

	case *ast.Ident:
		if v, ok := env.Get(e.Name); ok {
			return v, nil
		}
		if it.lenient {
			return it.proxyOrUndefined(), nil
		}
		return nil, it.ThrowError("ReferenceError", e.Name+" is not defined")

	case *ast.RegexLit:
		return it.makeRegex(e.Pattern, e.Flags), nil

	case *ast.TemplateLit:
		var sb strings.Builder
		for i, q := range e.Quasis {
			sb.WriteString(q)
			if i < len(e.Exprs) {
				v, err := it.evalExpr(e.Exprs[i], env, this)
				if err != nil {
					return nil, err
				}
				sb.WriteString(value.ToString(v))
			}
		}
		return value.String(sb.String()), nil

	case *ast.ArrayLit:
		var elems []value.Value
		for _, el := range e.Elems {
			if el == nil {
				elems = append(elems, value.Undefined{})
				continue
			}
			if sp, ok := el.(*ast.SpreadExpr); ok {
				v, err := it.evalExpr(sp.X, env, this)
				if err != nil {
					return nil, err
				}
				elems = append(elems, it.spreadValues(v)...)
				continue
			}
			v, err := it.evalExpr(el, env, this)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		arr := it.NewArrayObject(elems)
		it.recordAlloc(arr, e.Loc)
		return arr, nil

	case *ast.ObjectLit:
		obj := it.NewPlainObject()
		it.recordAlloc(obj, e.Loc)
		for _, p := range e.Props {
			key := p.Key
			if p.Computed != nil {
				kv, err := it.evalExpr(p.Computed, env, this)
				if err != nil {
					return nil, err
				}
				key = value.PropertyKey(kv)
			}
			v, err := it.evalExpr(p.Value, env, this)
			if err != nil {
				return nil, err
			}
			switch p.Kind {
			case ast.GetterProp:
				it.defineAccessor(obj, key, v, nil)
			case ast.SetterProp:
				it.defineAccessor(obj, key, nil, v)
			default:
				obj.Set(key, v)
				if fn, ok := v.(*value.Object); ok && fn.Callable() {
					it.hooks.StaticWrite(obj, key, v)
				}
			}
		}
		return obj, nil

	case *ast.FuncLit:
		return it.makeFunction(e, env, this), nil

	case *ast.CallExpr:
		return it.evalCall(e, env, this)

	case *ast.NewExpr:
		return it.evalNew(e, env, this)

	case *ast.MemberExpr:
		base, err := it.evalExpr(e.Obj, env, this)
		if err != nil {
			return nil, err
		}
		if e.Computed {
			kv, err := it.evalExpr(e.PropExpr, env, this)
			if err != nil {
				return nil, err
			}
			key := value.PropertyKey(kv)
			result, err := it.getMemberAt(base, key, it.hookLoc(e.Loc))
			if err != nil {
				return nil, err
			}
			it.hooks.DynamicRead(it.hookLoc(e.Loc), base, key, result)
			return result, nil
		}
		return it.getMemberAt(base, e.Prop, it.hookLoc(e.Loc))

	case *ast.AssignExpr:
		return it.evalAssign(e, env, this)

	case *ast.BinaryExpr:
		return it.evalBinary(e, env, this)

	case *ast.LogicalExpr:
		l, err := it.evalExpr(e.L, env, this)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "&&":
			if !value.ToBool(l) {
				return l, nil
			}
		case "||":
			if value.ToBool(l) {
				return l, nil
			}
		case "??":
			if !isNullish(l) {
				return l, nil
			}
		}
		return it.evalExpr(e.R, env, this)

	case *ast.UnaryExpr:
		return it.evalUnary(e, env, this)

	case *ast.UpdateExpr:
		return it.evalUpdate(e, env, this)

	case *ast.CondExpr:
		cond, err := it.evalExpr(e.Cond, env, this)
		if err != nil {
			return nil, err
		}
		if value.ToBool(cond) {
			return it.evalExpr(e.Then, env, this)
		}
		return it.evalExpr(e.Else, env, this)

	case *ast.SeqExpr:
		var last value.Value = value.Undefined{}
		for _, x := range e.Exprs {
			v, err := it.evalExpr(x, env, this)
			if err != nil {
				return nil, err
			}
			last = v
		}
		return last, nil

	case *ast.SpreadExpr:
		return nil, it.ThrowError("SyntaxError", "unexpected spread")

	case *ast.YieldExpr:
		var v value.Value = value.Undefined{}
		if e.X != nil {
			var err error
			v, err = it.evalExpr(e.X, env, this)
			if err != nil {
				return nil, err
			}
		}
		if e.Delegate {
			return it.yieldDelegate(v), nil
		}
		if it.genSink != nil {
			it.genSink.elems = append(it.genSink.elems, v)
		}
		// The resume value: unknown under forced execution, undefined
		// concretely (nothing ever passes a value to next()).
		return it.proxyOrUndefined(), nil

	default:
		return nil, fmt.Errorf("interp: unknown expression %T", e)
	}
}

func isNullish(v value.Value) bool {
	switch v.(type) {
	case value.Undefined, value.Null:
		return true
	}
	return false
}

func (it *Interp) proxyOrUndefined() value.Value {
	if it.proxy != nil {
		return it.proxy
	}
	return value.Undefined{}
}

// isEvalLoc reports whether a location lies in dynamically generated code
// (eval / the Function constructor), whose positions cannot be mapped to
// anything meaningful in the static analysis.
func isEvalLoc(l loc.Loc) bool { return strings.Contains(l.File, "#eval") }

// hookLoc suppresses locations of operations inside dynamically generated
// code, per the paper's eval rule. The check is per-location, not a global
// mode: objects allocated by statically known functions *called from*
// eval'd code keep their meaningful sites.
func (it *Interp) hookLoc(l loc.Loc) loc.Loc {
	if isEvalLoc(l) {
		return loc.Loc{}
	}
	return l
}

// recordAlloc attributes an allocation site to obj and notifies hooks,
// unless the allocation site lies in dynamically generated code.
func (it *Interp) recordAlloc(obj *value.Object, l loc.Loc) {
	if isEvalLoc(l) {
		return
	}
	obj.Alloc = l
	it.hooks.ObjectCreated(obj, l)
}

// makeFunction evaluates a function definition to a function value.
func (it *Interp) makeFunction(f *ast.FuncLit, env *value.Scope, this value.Value) *value.Object {
	fd := &value.FuncData{
		Name:    f.Name,
		Decl:    f,
		Env:     env,
		Module:  it.currentModule,
		IsArrow: f.IsArrow,
	}
	if f.IsArrow {
		fd.ArrowThis = this
	}
	fn := value.NewFunction(it.protos.function, fd)
	// Ordinary functions get a fresh .prototype object for new-expressions.
	if !f.IsArrow {
		proto := it.NewPlainObject()
		proto.Set("constructor", fn)
		fn.Set("prototype", proto)
	}
	if !isEvalLoc(f.Loc) {
		fn.Alloc = f.Loc
		it.hooks.FunctionDefined(fn, f.Loc)
	}
	// Named function expressions can refer to themselves.
	if f.Name != "" {
		selfEnv := value.NewScope(env)
		selfEnv.Declare(f.Name, fn)
		fd.Env = selfEnv
	}
	return fn
}

func (it *Interp) defineAccessor(obj *value.Object, key string, getter, setter value.Value) {
	prop := obj.GetOwn(key)
	if prop == nil || !prop.IsAccessor() {
		prop = &value.Prop{Enumerable: true}
	}
	if g, ok := getter.(*value.Object); ok && g.Callable() {
		prop.Getter = g
	}
	if s, ok := setter.(*value.Object); ok && s.Callable() {
		prop.Setter = s
	}
	obj.DefineProp(key, prop)
}

// ------------------------------------------------------------------ members

// getMember reads base.key attributing accessor and trap invocations to the
// call site of the native currently executing (natives are the only callers
// without a syntactic member site of their own).
func (it *Interp) getMember(base value.Value, key string) (value.Value, error) {
	return it.getMemberAt(base, key, it.callSiteLoc)
}

// getMemberAt reads base.key with full prototype-chain, accessor, primitive
// and proxy handling. site is the source location of the member operation;
// getter and Proxy-trap calls are attributed to it so the dynamic call graph
// records accessor edges.
func (it *Interp) getMemberAt(base value.Value, key string, site loc.Loc) (value.Value, error) {
	switch b := base.(type) {
	case *value.Object:
		if b.IsProxy() {
			return it.proxy, nil
		}
		if b.Class == classMock {
			return it.mockFunction(), nil
		}
		if up := userProxyOf(b); up != nil {
			if t := up.trap("get"); t != nil {
				return it.callWithSite(t, up.handler, []value.Value{up.target, value.String(key), b}, site)
			}
			return it.getMemberAt(up.target, key, site)
		}
		prop, _ := b.Lookup(key)
		if prop == nil {
			if b.ProxyTarget != nil && it.proxy != nil {
				return it.proxy, nil
			}
			return value.Undefined{}, nil
		}
		if prop.IsAccessor() {
			if prop.Getter == nil {
				return value.Undefined{}, nil
			}
			return it.callWithSite(prop.Getter, base, nil, site)
		}
		return prop.Value, nil
	case value.String:
		return it.stringMember(b, key)
	case value.Number:
		return it.numberMember(b, key)
	case value.Bool:
		if v, ok := it.protoLookup(it.protos.boolean, key); ok {
			return v, nil
		}
		return value.Undefined{}, nil
	case value.Undefined, value.Null:
		if it.lenient {
			return it.proxyOrUndefined(), nil
		}
		return nil, it.ThrowError("TypeError",
			fmt.Sprintf("cannot read properties of %s (reading '%s')", value.ToString(base), key))
	}
	return value.Undefined{}, nil
}

func (it *Interp) protoLookup(proto *value.Object, key string) (value.Value, bool) {
	prop, _ := proto.Lookup(key)
	if prop == nil || prop.IsAccessor() {
		return nil, false
	}
	return prop.Value, true
}

// setMember writes base.key = val with setter and proxy handling. dynamic
// reports whether the write was a computed (dynamic) property write, and
// site labels the operation for the hooks.
func (it *Interp) setMember(base value.Value, key string, val value.Value, dynamic bool, site loc.Loc) error {
	obj, ok := base.(*value.Object)
	if !ok {
		if isNullish(base) && !it.lenient {
			return it.ThrowError("TypeError",
				fmt.Sprintf("cannot set properties of %s (setting '%s')", value.ToString(base), key))
		}
		return nil // writes to primitives are silently dropped
	}
	if obj.IsProxy() || obj.Class == classMock {
		return nil // the paper: writes to p* are ignored
	}
	if up := userProxyOf(obj); up != nil {
		if t := up.trap("set"); t != nil {
			_, err := it.callWithSite(t, up.handler, []value.Value{up.target, value.String(key), val, obj}, site)
			return err
		}
		return it.setMember(up.target, key, val, dynamic, site)
	}
	// Setter anywhere on the prototype chain intercepts the write.
	if prop, _ := obj.Lookup(key); prop != nil && prop.IsAccessor() {
		if prop.Setter != nil {
			_, err := it.callWithSite(prop.Setter, base, []value.Value{val}, site)
			return err
		}
		return nil
	}
	obj.Set(key, val)
	if dynamic {
		it.hooks.DynamicWrite(site, base, key, val)
	} else {
		it.hooks.StaticWrite(base, key, val)
	}
	return nil
}

// ------------------------------------------------------------------- assign

func (it *Interp) evalAssign(e *ast.AssignExpr, env *value.Scope, this value.Value) (value.Value, error) {
	// Compute the value, applying the compound operator if present.
	compute := func(current func() (value.Value, error)) (value.Value, error) {
		rhs, err := it.evalExpr(e.Value, env, this)
		if err != nil {
			return nil, err
		}
		if e.Op == "=" {
			return rhs, nil
		}
		cur, err := current()
		if err != nil {
			return nil, err
		}
		return it.applyBinary(strings.TrimSuffix(e.Op, "="), cur, rhs)
	}

	switch target := e.Target.(type) {
	case *ast.Ident:
		v, err := compute(func() (value.Value, error) {
			if cur, ok := env.Get(target.Name); ok {
				return cur, nil
			}
			return value.Undefined{}, nil
		})
		if err != nil {
			return nil, err
		}
		if !env.SetExisting(target.Name, v) {
			// Sloppy-mode implicit global.
			it.globalScope.Declare(target.Name, v)
		}
		return v, nil

	case *ast.MemberExpr:
		base, err := it.evalExpr(target.Obj, env, this)
		if err != nil {
			return nil, err
		}
		key := target.Prop
		if target.Computed {
			kv, err := it.evalExpr(target.PropExpr, env, this)
			if err != nil {
				return nil, err
			}
			key = value.PropertyKey(kv)
		}
		v, err := compute(func() (value.Value, error) { return it.getMemberAt(base, key, it.hookLoc(e.Loc)) })
		if err != nil {
			return nil, err
		}
		if err := it.setMember(base, key, v, target.Computed, it.hookLoc(e.Loc)); err != nil {
			return nil, err
		}
		return v, nil
	}
	return nil, it.ThrowError("SyntaxError", "invalid assignment target")
}

func (it *Interp) evalUpdate(e *ast.UpdateExpr, env *value.Scope, this value.Value) (value.Value, error) {
	read := func() (value.Value, error) { return it.evalExpr(e.X, env, this) }
	old, err := read()
	if err != nil {
		return nil, err
	}
	n := value.ToNumber(old)
	var nv float64
	if e.Op == "++" {
		nv = n + 1
	} else {
		nv = n - 1
	}
	newVal := value.Number(nv)
	switch target := e.X.(type) {
	case *ast.Ident:
		if !env.SetExisting(target.Name, newVal) {
			it.globalScope.Declare(target.Name, newVal)
		}
	case *ast.MemberExpr:
		base, err := it.evalExpr(target.Obj, env, this)
		if err != nil {
			return nil, err
		}
		key := target.Prop
		if target.Computed {
			kv, err := it.evalExpr(target.PropExpr, env, this)
			if err != nil {
				return nil, err
			}
			key = value.PropertyKey(kv)
		}
		if err := it.setMember(base, key, newVal, target.Computed, it.hookLoc(e.Loc)); err != nil {
			return nil, err
		}
	default:
		return nil, it.ThrowError("SyntaxError", "invalid update target")
	}
	if e.Prefix {
		return newVal, nil
	}
	return value.Number(n), nil
}

// ------------------------------------------------------------------ binary

func (it *Interp) evalBinary(e *ast.BinaryExpr, env *value.Scope, this value.Value) (value.Value, error) {
	l, err := it.evalExpr(e.L, env, this)
	if err != nil {
		return nil, err
	}
	r, err := it.evalExpr(e.R, env, this)
	if err != nil {
		return nil, err
	}
	if e.Op == "in" {
		// Dispatched here rather than in applyBinary so a Proxy has-trap
		// invocation carries the source site of the `in` expression.
		return it.hasMember(l, r, it.hookLoc(e.Loc))
	}
	return it.applyBinary(e.Op, l, r)
}

// hasMember implements the `in` operator, routing through a Proxy has trap
// when the right operand is a user proxy.
func (it *Interp) hasMember(l, r value.Value, site loc.Loc) (value.Value, error) {
	obj, ok := r.(*value.Object)
	if !ok {
		if it.lenient {
			return value.Bool(false), nil
		}
		return nil, it.ThrowError("TypeError", "'in' requires an object")
	}
	if obj.IsProxy() {
		return value.Bool(false), nil
	}
	if up := userProxyOf(obj); up != nil {
		if t := up.trap("has"); t != nil {
			v, err := it.callWithSite(t, up.handler, []value.Value{up.target, value.String(value.ToString(l))}, site)
			if err != nil {
				return nil, err
			}
			return value.Bool(value.ToBool(v)), nil
		}
		return it.hasMember(l, up.target, site)
	}
	return value.Bool(obj.Has(value.ToString(l))), nil
}

func (it *Interp) applyBinary(op string, l, r value.Value) (value.Value, error) {
	switch op {
	case "+":
		ls, lIsStr := l.(value.String)
		rs, rIsStr := r.(value.String)
		lo, lIsObj := l.(*value.Object)
		ro, rIsObj := r.(*value.Object)
		if lIsObj && !lo.IsProxy() {
			ls, lIsStr = value.String(value.ToString(lo)), true
		}
		if rIsObj && !ro.IsProxy() {
			rs, rIsStr = value.String(value.ToString(ro)), true
		}
		if lIsStr || rIsStr {
			var lstr, rstr string
			if lIsStr {
				lstr = string(ls)
			} else {
				lstr = value.ToString(l)
			}
			if rIsStr {
				rstr = string(rs)
			} else {
				rstr = value.ToString(r)
			}
			return value.String(lstr + rstr), nil
		}
		return value.Number(value.ToNumber(l) + value.ToNumber(r)), nil
	case "-":
		return value.Number(value.ToNumber(l) - value.ToNumber(r)), nil
	case "*":
		return value.Number(value.ToNumber(l) * value.ToNumber(r)), nil
	case "/":
		return value.Number(value.ToNumber(l) / value.ToNumber(r)), nil
	case "%":
		return value.Number(math.Mod(value.ToNumber(l), value.ToNumber(r))), nil
	case "**":
		return value.Number(math.Pow(value.ToNumber(l), value.ToNumber(r))), nil
	case "==":
		return value.Bool(value.LooseEquals(l, r)), nil
	case "!=":
		return value.Bool(!value.LooseEquals(l, r)), nil
	case "===":
		return value.Bool(value.StrictEquals(l, r)), nil
	case "!==":
		return value.Bool(!value.StrictEquals(l, r)), nil
	case "<", ">", "<=", ">=":
		return it.compare(op, l, r), nil
	case "&":
		return value.Number(float64(toInt32(l) & toInt32(r))), nil
	case "|":
		return value.Number(float64(toInt32(l) | toInt32(r))), nil
	case "^":
		return value.Number(float64(toInt32(l) ^ toInt32(r))), nil
	case "<<":
		return value.Number(float64(toInt32(l) << (toUint32(r) & 31))), nil
	case ">>":
		return value.Number(float64(toInt32(l) >> (toUint32(r) & 31))), nil
	case ">>>":
		return value.Number(float64(toUint32(l) >> (toUint32(r) & 31))), nil
	case "in":
		return it.hasMember(l, r, it.callSiteLoc)
	case "instanceof":
		fn, ok := r.(*value.Object)
		if !ok || !fn.Callable() {
			if it.lenient {
				return value.Bool(false), nil
			}
			return nil, it.ThrowError("TypeError", "right-hand side of instanceof is not callable")
		}
		lo, ok := l.(*value.Object)
		if !ok {
			return value.Bool(false), nil
		}
		protoV, err := it.getMember(fn, "prototype")
		if err != nil {
			return nil, err
		}
		proto, ok := protoV.(*value.Object)
		if !ok {
			return value.Bool(false), nil
		}
		for cur := lo.Proto; cur != nil; cur = cur.Proto {
			if cur == proto {
				return value.Bool(true), nil
			}
		}
		return value.Bool(false), nil
	}
	return nil, fmt.Errorf("interp: unknown binary operator %q", op)
}

func (it *Interp) compare(op string, l, r value.Value) value.Value {
	ls, lStr := l.(value.String)
	rs, rStr := r.(value.String)
	if lStr && rStr {
		a, b := string(ls), string(rs)
		switch op {
		case "<":
			return value.Bool(a < b)
		case ">":
			return value.Bool(a > b)
		case "<=":
			return value.Bool(a <= b)
		case ">=":
			return value.Bool(a >= b)
		}
	}
	a, b := value.ToNumber(l), value.ToNumber(r)
	if math.IsNaN(a) || math.IsNaN(b) {
		return value.Bool(false)
	}
	switch op {
	case "<":
		return value.Bool(a < b)
	case ">":
		return value.Bool(a > b)
	case "<=":
		return value.Bool(a <= b)
	default:
		return value.Bool(a >= b)
	}
}

func toInt32(v value.Value) int32 {
	f := value.ToNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

func toUint32(v value.Value) uint32 {
	f := value.ToNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(f))
}

func (it *Interp) evalUnary(e *ast.UnaryExpr, env *value.Scope, this value.Value) (value.Value, error) {
	if e.Op == "typeof" {
		if id, ok := e.X.(*ast.Ident); ok {
			if v, found := env.Get(id.Name); found {
				return value.String(v.Type()), nil
			}
			return value.String("undefined"), nil
		}
	}
	if e.Op == "delete" {
		if mem, ok := e.X.(*ast.MemberExpr); ok {
			base, err := it.evalExpr(mem.Obj, env, this)
			if err != nil {
				return nil, err
			}
			key := mem.Prop
			if mem.Computed {
				kv, err := it.evalExpr(mem.PropExpr, env, this)
				if err != nil {
					return nil, err
				}
				key = value.PropertyKey(kv)
			}
			if obj, ok := base.(*value.Object); ok && !obj.IsProxy() {
				return value.Bool(obj.Delete(key)), nil
			}
			return value.Bool(true), nil
		}
		return value.Bool(true), nil
	}
	v, err := it.evalExpr(e.X, env, this)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "await":
		return it.awaitValue(v)
	case "!":
		return value.Bool(!value.ToBool(v)), nil
	case "-":
		return value.Number(-value.ToNumber(v)), nil
	case "+":
		return value.Number(value.ToNumber(v)), nil
	case "~":
		return value.Number(float64(^toInt32(v))), nil
	case "typeof":
		return value.String(v.Type()), nil
	case "void":
		return value.Undefined{}, nil
	}
	return nil, fmt.Errorf("interp: unknown unary operator %q", e.Op)
}

// -------------------------------------------------------------------- calls

func (it *Interp) evalArgs(args []ast.Expr, env *value.Scope, this value.Value) ([]value.Value, error) {
	var out []value.Value
	for _, a := range args {
		if sp, ok := a.(*ast.SpreadExpr); ok {
			v, err := it.evalExpr(sp.X, env, this)
			if err != nil {
				return nil, err
			}
			out = append(out, it.spreadValues(v)...)
			continue
		}
		v, err := it.evalExpr(a, env, this)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (it *Interp) spreadValues(v value.Value) []value.Value {
	switch v := v.(type) {
	case *value.Object:
		if gs, ok := v.HostData.(*genState); ok {
			out := append([]value.Value{}, gs.elems[gs.idx:]...)
			gs.idx = len(gs.elems)
			for i, e := range out {
				if e == nil {
					out[i] = value.Undefined{}
				}
			}
			return out
		}
		if v.Class == value.ClassArray {
			out := make([]value.Value, len(v.Elems))
			for i, e := range v.Elems {
				if e == nil {
					e = value.Undefined{}
				}
				out[i] = e
			}
			return out
		}
	case value.String:
		var out []value.Value
		for _, r := range string(v) {
			out = append(out, value.String(string(r)))
		}
		return out
	}
	return nil
}

func (it *Interp) evalCall(e *ast.CallExpr, env *value.Scope, this value.Value) (value.Value, error) {
	// Method calls need the receiver; evaluate callee specially.
	var calleeVal value.Value
	var receiver value.Value = value.Undefined{}
	switch callee := e.Callee.(type) {
	case *ast.MemberExpr:
		base, err := it.evalExpr(callee.Obj, env, this)
		if err != nil {
			return nil, err
		}
		receiver = base
		key := callee.Prop
		if callee.Computed {
			kv, err := it.evalExpr(callee.PropExpr, env, this)
			if err != nil {
				return nil, err
			}
			key = value.PropertyKey(kv)
		}
		calleeVal, err = it.getMemberAt(base, key, it.hookLoc(callee.Loc))
		if err != nil {
			return nil, err
		}
		if callee.Computed {
			it.hooks.DynamicRead(it.hookLoc(callee.Loc), base, key, calleeVal)
		}
	default:
		var err error
		calleeVal, err = it.evalExpr(e.Callee, env, this)
		if err != nil {
			return nil, err
		}
	}

	args, err := it.evalArgs(e.Args, env, this)
	if err != nil {
		return nil, err
	}

	// require() gets a hook with the (possibly dynamic) module name.
	if fn, ok := calleeVal.(*value.Object); ok && fn.Callable() && fn.Fn.Native != nil {
		if fn.Fn.Name == "require" && len(args) > 0 {
			_, static := e.Args[0].(*ast.StringLit)
			it.hooks.RequireResolved(it.hookLoc(e.Loc), value.ToString(args[0]), !static)
		}
		// Direct eval sees the caller's scope.
		if fn.Fn.Name == "eval" && len(args) > 0 {
			if s, isStr := args[0].(value.String); isStr {
				return it.evalInScope(string(s), env)
			}
			return arg(args, 0), nil
		}
	}

	return it.callValue(calleeVal, receiver, args, it.hookLoc(e.Loc))
}

// callValue invokes callee, handling proxies and non-callables.
func (it *Interp) callValue(callee, this value.Value, args []value.Value, site loc.Loc) (value.Value, error) {
	fn, ok := callee.(*value.Object)
	if !ok || !fn.Callable() {
		if obj, isObj := callee.(*value.Object); isObj {
			if obj.IsProxy() {
				return it.proxy, nil // the paper: call on p* is a no-op returning p*
			}
			if obj.Class == classMock {
				return it.invokeMock(args)
			}
			if up := userProxyOf(obj); up != nil {
				if t := up.trap("apply"); t != nil {
					argsArr := it.NewArrayObject(append([]value.Value{}, args...))
					return it.callWithSite(t, up.handler, []value.Value{up.target, this, argsArr}, site)
				}
				return it.callValue(up.target, this, args, site)
			}
		}
		if it.lenient {
			return it.proxyOrUndefined(), nil
		}
		return nil, it.ThrowError("TypeError", value.ToString(callee)+" is not a function")
	}
	return it.callWithSite(fn, this, args, site)
}

// CallFunction implements value.Host (calls with no syntactic site).
func (it *Interp) CallFunction(fn *value.Object, this value.Value, args []value.Value) (value.Value, error) {
	return it.callWithSite(fn, this, args, loc.Loc{})
}

// CallWithSite invokes fn attributing the call to the given source
// location (used by natives like Function.prototype.apply that forward the
// original call site).
func (it *Interp) CallWithSite(fn *value.Object, this value.Value, args []value.Value, site loc.Loc) (value.Value, error) {
	return it.callWithSite(fn, this, args, site)
}

// CallSite returns the call-site location of the native function currently
// executing; natives that allocate (Object.create) or forward calls
// (apply/call/forEach) use it.
func (it *Interp) CallSite() loc.Loc { return it.callSiteLoc }

func (it *Interp) callWithSite(fn *value.Object, this value.Value, args []value.Value, site loc.Loc) (value.Value, error) {
	if it.depth >= it.maxDepth {
		// In lenient (forced-execution) mode a too-deep call approximates
		// to p* instead of aborting: the recursion unwinds frame by frame
		// and every statement after the overflowing call still runs, so
		// the item keeps collecting hints. Aborting here would discard the
		// rest of the module's top level — and a concrete run of the same
		// code survives the overflow whenever it sits inside try/catch.
		// Mirrors the lenient loop-budget recovery (errLoopExhausted).
		if it.lenient {
			return it.proxyOrUndefined(), nil
		}
		return nil, &BudgetError{Reason: ReasonStackDepth}
	}
	it.depth++
	defer func() { it.depth-- }()

	fd := fn.Fn
	switch {
	case fd.BoundTarget != nil:
		allArgs := append(append([]value.Value{}, fd.BoundArgs...), args...)
		return it.callWithSite(fd.BoundTarget, fd.BoundThis, allArgs, site)
	case fd.Native != nil:
		savedSite := it.callSiteLoc
		it.callSiteLoc = site
		defer func() { it.callSiteLoc = savedSite }()
		return fd.Native(it, this, args)
	case fd.Decl != nil:
		it.hooks.BeforeCall(site, fn, this, args)
		return it.invokeUser(fn, this, args, false)
	}
	return value.Undefined{}, nil
}

// invokeUser runs a user-defined function. If forceProxyArgs is true every
// parameter and the arguments object bind to p* (the paper's
// f.apply(w, p*) forcing convention).
func (it *Interp) invokeUser(fn *value.Object, this value.Value, args []value.Value, forceProxyArgs bool) (value.Value, error) {
	fd := fn.Fn
	f := fd.Decl
	env := value.NewScope(fd.Env)

	// this binding: arrows use the lexical this.
	callThis := this
	if fd.IsArrow {
		callThis = fd.ArrowThis
	}
	if callThis == nil {
		callThis = value.Undefined{}
	}

	// Parameters.
	for i, name := range f.Params {
		var v value.Value = value.Undefined{}
		switch {
		case forceProxyArgs:
			v = it.proxy
		case i == f.RestIdx:
			var rest []value.Value
			if i < len(args) {
				rest = append(rest, args[i:]...)
			}
			v = it.NewArrayObject(rest)
		case i < len(args):
			v = args[i]
		}
		env.Declare(name, v)
	}

	// arguments object (not for arrows).
	if !fd.IsArrow {
		if forceProxyArgs {
			env.Declare("arguments", it.proxy)
		} else {
			env.Declare("arguments", it.NewArrayObject(append([]value.Value{}, args...)))
		}
	}

	savedModule := it.currentModule
	if fd.Module != "" {
		it.currentModule = fd.Module
	}
	defer func() { it.currentModule = savedModule }()

	// Yield routing: a generator body gets a fresh sink; an ordinary function
	// body detaches from any enclosing generator's sink (its yields are not
	// the outer generator's); arrows inherit the sink, like `this`.
	savedSink := it.genSink
	if !fd.IsArrow {
		it.genSink = nil
	}
	defer func() { it.genSink = savedSink }()

	runBody := func() (value.Value, error) {
		// Expression-bodied arrow.
		if f.ExprBody != nil {
			return it.evalExpr(f.ExprBody, env, callThis)
		}
		if err := it.hoist(f.Body.Body, env, callThis); err != nil {
			return nil, err
		}
		c, err := it.execBlock(f.Body, env, callThis)
		if err != nil {
			return nil, err
		}
		if c.kind == ctrlReturn {
			return c.value, nil
		}
		return value.Undefined{}, nil
	}
	if f.IsGenerator {
		// Eager generator model: the body runs at call time, yields are
		// collected in order into the returned generator object, and next()
		// / for-of replay them. There is no resumption, so yield expressions
		// evaluate to undefined (p* in approximate mode). Deterministic and
		// identical across the concrete and approximate interpreters, which
		// is what the differential oracles require. async function* returns
		// the generator object directly, not a promise.
		st := &genState{}
		it.genSink = st
		v, err := runBody()
		if err != nil {
			return nil, err
		}
		st.retVal = v
		g := value.NewObject(it.generatorProto)
		g.HostData = st
		return g, nil
	}
	if !f.IsAsync {
		return runBody()
	}
	// Async functions return promises: a normal return resolves, a thrown
	// JS exception rejects (budget and host errors still propagate).
	v, err := runBody()
	if err != nil {
		var thrown *Thrown
		if errors.As(err, &thrown) {
			return it.NewSettledPromise(2, thrown.Value), nil
		}
		return nil, err
	}
	// Returning a promise from an async function passes it through.
	if p, ok := v.(*value.Object); ok && it.promiseState(p) != nil {
		return p, nil
	}
	return it.NewSettledPromise(1, v), nil
}

// awaitValue implements the await operator for the synchronous promise
// model: fulfilled promises unwrap to their value, rejected promises throw,
// anything else passes through unchanged.
func (it *Interp) awaitValue(v value.Value) (value.Value, error) {
	p, ok := v.(*value.Object)
	if !ok {
		return v, nil
	}
	d := it.promiseState(p)
	if d == nil {
		return v, nil
	}
	switch d.state {
	case 1:
		return d.val, nil
	case 2:
		return nil, &Thrown{Value: d.val}
	default:
		// A pending promise can only arise from a never-called resolve;
		// there is no event loop to settle it later.
		return value.Undefined{}, nil
	}
}

// ForceCall is the approximate interpreter's entry point: it invokes fn as
// f.apply(w, p*), binding this to w (or p* if w is nil) and every declared
// parameter and the arguments object to p*. It must only be used in
// approximate mode.
func (it *Interp) ForceCall(fn *value.Object, w value.Value) (value.Value, error) {
	if it.proxy == nil {
		return nil, errors.New("interp: ForceCall requires approximate mode")
	}
	if fn.Fn == nil || fn.Fn.Decl == nil {
		return value.Undefined{}, nil
	}
	if w == nil {
		w = it.proxy
	}
	it.hooks.BeforeCall(loc.Loc{}, fn, w, nil)
	return it.invokeUser(fn, w, nil, true)
}

func (it *Interp) evalNew(e *ast.NewExpr, env *value.Scope, this value.Value) (value.Value, error) {
	calleeVal, err := it.evalExpr(e.Callee, env, this)
	if err != nil {
		return nil, err
	}
	args, err := it.evalArgs(e.Args, env, this)
	if err != nil {
		return nil, err
	}
	return it.Construct(calleeVal, args, it.hookLoc(e.Loc))
}

// Construct implements the new operator: allocate an object whose prototype
// is callee.prototype, run callee with it as this, and return the explicit
// object result if the constructor returned one.
func (it *Interp) Construct(calleeVal value.Value, args []value.Value, site loc.Loc) (value.Value, error) {
	fn, ok := calleeVal.(*value.Object)
	if !ok || !fn.Callable() {
		if obj, isObj := calleeVal.(*value.Object); isObj && (obj.IsProxy() || obj.Class == classMock) {
			return it.proxy, nil
		}
		if up := userProxyOf(calleeVal); up != nil {
			return it.Construct(up.target, args, site)
		}
		if it.lenient {
			return it.proxyOrUndefined(), nil
		}
		return nil, it.ThrowError("TypeError", value.ToString(calleeVal)+" is not a constructor")
	}
	protoV, err := it.getMember(fn, "prototype")
	if err != nil {
		return nil, err
	}
	proto, _ := protoV.(*value.Object)
	if proto == nil || proto.IsProxy() {
		proto = it.protos.object
	}
	obj := value.NewObject(proto)
	it.recordAlloc(obj, site)

	// Native constructors (Error, RegExp, …) may substitute their own result.
	ret, err := it.callWithSite(fn, obj, args, site)
	if err != nil {
		return nil, err
	}
	if r, ok := ret.(*value.Object); ok && !r.IsProxy() {
		return r, nil
	}
	return obj, nil
}

// EvalSource implements value.Host: parse and execute dynamically generated
// code (eval, Function constructor). Allocation-site recording is disabled
// inside, per the paper. Indirect eval runs in the global scope, so
// declarations inside become globals, as in real JS.
func (it *Interp) EvalSource(src string) (value.Value, error) {
	return it.evalInScope(src, it.globalScope)
}

// evalInScope runs dynamically generated code in the given lexical scope
// (direct eval sees the caller's scope).
func (it *Interp) evalInScope(src string, env *value.Scope) (value.Value, error) {
	if it.evalDepth == 0 {
		it.hooks.EvalCode(it.currentModule, src)
	}
	it.evalCount++
	file := fmt.Sprintf("%s#eval%d", it.currentModule, it.evalCount)
	prog, err := parseEval(file, src)
	if err != nil {
		return nil, it.ThrowError("SyntaxError", err.Error())
	}
	it.evalDepth++
	defer func() { it.evalDepth-- }()
	return it.RunProgram(prog, env, value.Undefined{})
}
