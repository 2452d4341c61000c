package static

import (
	"repro/internal/ast"
	"repro/internal/callgraph"
	"repro/internal/loc"
)

// genModule generates constraints for one module: the CommonJS environment
// (module/exports/require/…), hoisting, and the statement walk.
func (a *analyzer) genModule(path string, prog *ast.Program) {
	a.curModule = path
	a.curFn = callgraph.ModuleFunc(path)
	a.cg.AddFunc(a.curFn)
	a.ctx(RuleFlow, loc.Loc{File: path})

	moduleTok := a.newToken(tokenInfo{kind: tokModule, path: path})
	exportsTok := a.newToken(tokenInfo{kind: tokExports, path: path})
	a.s.addToken(a.protoVar(moduleTok), a.objectProto)
	a.s.addToken(a.protoVar(exportsTok), a.objectProto)
	a.s.addToken(a.propVar(moduleTok, "exports"), exportsTok)
	a.moduleExports[path] = a.propVar(moduleTok, "exports")

	moduleVar := a.s.newVar()
	a.s.addToken(moduleVar, moduleTok)
	exportsVar := a.s.newVar()
	a.s.addToken(exportsVar, exportsTok)
	requireVar := a.s.newVar()
	a.s.addToken(requireVar, a.nativeToken("require"))

	fr := &frame{
		vars: map[string]Var{
			"module":     moduleVar,
			"exports":    exportsVar,
			"require":    requireVar,
			"__filename": a.s.newVar(),
			"__dirname":  a.s.newVar(),
		},
		thisVar: exportsVar, // CommonJS: top-level this is module.exports
	}
	// Eval-hint code of this module is generated later in this frame
	// (direct-eval scoping), so it may read and assign every module-scope
	// binding.
	a.moduleFrames[path] = fr
	a.hoistInto(prog.Body, fr)
	for _, s := range prog.Body {
		a.genStmt(s, fr)
	}
}

// hoistInto declares var-bound names and function declarations of a
// function or module body into fr (mirroring the interpreter's hoisting).
func (a *analyzer) hoistInto(body []ast.Stmt, fr *frame) {
	var scan func(ss []ast.Stmt)
	declare := func(name string) {
		if _, ok := fr.vars[name]; !ok {
			fr.vars[name] = a.s.newVar()
		}
	}
	scanStmt := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.VarDecl:
			// let/const are conflated with var at function granularity (the
			// analysis is flow-insensitive anyway).
			for _, d := range s.Decls {
				declare(d.Name)
			}
		case *ast.FuncDecl:
			declare(s.Fn.Name)
			fnTok := a.funcToken(s.Fn)
			a.s.addToken(fr.vars[s.Fn.Name], fnTok)
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
			declare(s.Name)
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
}

// --------------------------------------------------------------- statements

func (a *analyzer) genStmt(s ast.Stmt, fr *frame) {
	switch s := s.(type) {
	case *ast.VarDecl:
		for _, d := range s.Decls {
			if d.Init == nil {
				continue
			}
			v := a.genExpr(d.Init, fr)
			target, ok := fr.lookup(d.Name)
			if !ok {
				target = a.globalVar(d.Name)
			}
			a.s.addEdge(v, target)
		}
	case *ast.FuncDecl:
		// Token and binding were created during hoisting; generate the body.
		a.genFuncBody(s.Fn, fr)
	case *ast.ExprStmt:
		a.genExpr(s.X, fr)
	case *ast.BlockStmt:
		for _, st := range s.Body {
			a.genStmt(st, fr)
		}
	case *ast.EmptyStmt, *ast.BreakStmt, *ast.ContinueStmt:
	case *ast.IfStmt:
		a.genExpr(s.Cond, fr)
		a.genStmt(s.Then, fr)
		if s.Else != nil {
			a.genStmt(s.Else, fr)
		}
	case *ast.WhileStmt:
		a.genExpr(s.Cond, fr)
		a.genStmt(s.Body, fr)
	case *ast.DoWhileStmt:
		a.genStmt(s.Body, fr)
		a.genExpr(s.Cond, fr)
	case *ast.ForStmt:
		if s.Init != nil {
			a.genStmt(s.Init, fr)
		}
		if s.Cond != nil {
			a.genExpr(s.Cond, fr)
		}
		if s.Post != nil {
			a.genExpr(s.Post, fr)
		}
		a.genStmt(s.Body, fr)
	case *ast.ForInStmt:
		obj := a.genExpr(s.Obj, fr)
		target, ok := fr.lookup(s.Name)
		if !ok {
			target = a.globalVar(s.Name)
		}
		if s.IsOf {
			// for-of over arrays: elements flow to the loop variable.
			a.addLoad(obj, "$elem", target)
		}
		a.genStmt(s.Body, fr)
	case *ast.ReturnStmt:
		if s.X != nil {
			v := a.genExpr(s.X, fr)
			if fr.fn != nil {
				a.s.addEdge(v, fr.fn.ret)
			}
		}
	case *ast.ThrowStmt:
		a.genExpr(s.X, fr)
	case *ast.TryStmt:
		for _, st := range s.Block.Body {
			a.genStmt(st, fr)
		}
		if s.Catch != nil {
			catchFr := fr
			if s.CatchParam != "" {
				catchFr = &frame{vars: map[string]Var{s.CatchParam: a.s.newVar()}, parent: fr, thisVar: fr.thisVar, fn: fr.fn}
			}
			for _, st := range s.Catch.Body {
				a.genStmt(st, catchFr)
			}
		}
		if s.Finally != nil {
			for _, st := range s.Finally.Body {
				a.genStmt(st, fr)
			}
		}
	case *ast.SwitchStmt:
		a.genExpr(s.Disc, fr)
		for _, c := range s.Cases {
			if c.Test != nil {
				a.genExpr(c.Test, fr)
			}
			for _, st := range c.Body {
				a.genStmt(st, fr)
			}
		}
	}
}

// --------------------------------------------------------------- expressions

// genExpr generates constraints for e and returns its constraint variable.
func (a *analyzer) genExpr(e ast.Expr, fr *frame) Var {
	switch e := e.(type) {
	case *ast.NumberLit, *ast.StringLit, *ast.BoolLit, *ast.NullLit,
		*ast.UndefinedLit:
		return a.s.newVar()

	case *ast.RegexLit:
		v := a.s.newVar()
		t := a.allocToken(e.Loc, tokObject)
		a.s.addToken(a.protoVar(t), a.objectProto)
		a.s.addToken(v, t)
		return v

	case *ast.TemplateLit:
		for _, x := range e.Exprs {
			a.genExpr(x, fr)
		}
		return a.s.newVar()

	case *ast.Ident:
		if v, ok := fr.lookup(e.Name); ok {
			return v
		}
		return a.globalVar(e.Name)

	case *ast.ThisExpr:
		return fr.thisVar

	case *ast.ArrayLit:
		t := a.allocToken(e.Loc, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		elemVar := a.propVar(t, "$elem")
		for _, el := range e.Elems {
			if el == nil {
				continue
			}
			if sp, ok := el.(*ast.SpreadExpr); ok {
				inner := a.genExpr(sp.X, fr)
				a.addLoad(inner, "$elem", elemVar)
				continue
			}
			v := a.genExpr(el, fr)
			a.s.addEdge(v, elemVar)
		}
		out := a.s.newVar()
		a.s.addToken(out, t)
		return out

	case *ast.ObjectLit:
		t := a.allocToken(e.Loc, tokObject)
		a.s.addToken(a.protoVar(t), a.objectProto)
		for _, p := range e.Props {
			if p.Computed != nil {
				// Computed keys in literals are dynamic writes: ignored by
				// the baseline, recoverable via write hints (the literal's
				// location is the base allocation site).
				a.genExpr(p.Computed, fr)
				a.genExpr(p.Value, fr)
				continue
			}
			v := a.genExpr(p.Value, fr)
			switch p.Kind {
			case ast.GetterProp:
				// Accessors are modeled as $get$/$set$ pseudo-properties;
				// reads and writes of the key invoke them (features.go).
				// The $getsall/$setsall aggregates serve computed
				// accesses, whose key is unknown.
				a.s.addEdge(v, a.propVar(t, "$get$"+p.Key))
				a.s.addEdge(v, a.propVar(t, "$getsall"))
			case ast.SetterProp:
				a.s.addEdge(v, a.propVar(t, "$set$"+p.Key))
				a.s.addEdge(v, a.propVar(t, "$setsall"))
			default:
				a.s.addEdge(v, a.propVar(t, p.Key))
			}
		}
		out := a.s.newVar()
		a.s.addToken(out, t)
		return out

	case *ast.FuncLit:
		t := a.funcToken(e)
		a.genFuncBody(e, fr)
		out := a.s.newVar()
		a.s.addToken(out, t)
		return out

	case *ast.CallExpr:
		return a.genCall(e, fr)

	case *ast.NewExpr:
		return a.genNew(e, fr)

	case *ast.MemberExpr:
		base := a.genExpr(e.Obj, fr)
		if e.Computed {
			a.genExpr(e.PropExpr, fr)
			// Dynamic property read: [DPR] hints inject into this site's
			// variable, and the element-conflation rule feeds it the $elem
			// pseudo-property of the base (statically stored array
			// elements), keeping computed indexing consistent with the
			// modeled Array natives.
			a.dynReadBases[e.Loc] = base
			dst := a.dynReadVar(e.Loc)
			a.elemRead(base, dst, e.Loc)
			a.accessorLoadAny(base, dst, e.Loc)
			return dst
		}
		dst := a.s.newVar()
		a.addLoad(base, e.Prop, dst)
		a.accessorLoad(base, e.Prop, dst, e.Loc)
		return dst

	case *ast.AssignExpr:
		return a.genAssign(e, fr)

	case *ast.BinaryExpr:
		a.genExpr(e.L, fr)
		r := a.genExpr(e.R, fr)
		if e.Op == "in" {
			// `key in obj` fires Proxy has traps on obj.
			a.hasTrapCheck(r, e.Loc)
		}
		return a.s.newVar()

	case *ast.LogicalExpr:
		l := a.genExpr(e.L, fr)
		r := a.genExpr(e.R, fr)
		out := a.s.newVar()
		a.s.addEdge(l, out)
		a.s.addEdge(r, out)
		return out

	case *ast.UnaryExpr:
		x := a.genExpr(e.X, fr)
		if e.Op == "await" {
			// await unwraps promise payloads and passes other values
			// through.
			out := a.s.newVar()
			a.s.addEdge(x, out)
			a.addLoad(x, "$promiseval", out)
			return out
		}
		return a.s.newVar()

	case *ast.UpdateExpr:
		a.genExpr(e.X, fr)
		return a.s.newVar()

	case *ast.CondExpr:
		a.genExpr(e.Cond, fr)
		l := a.genExpr(e.Then, fr)
		r := a.genExpr(e.Else, fr)
		out := a.s.newVar()
		a.s.addEdge(l, out)
		a.s.addEdge(r, out)
		return out

	case *ast.SeqExpr:
		var last Var
		for _, x := range e.Exprs {
			last = a.genExpr(x, fr)
		}
		return last

	case *ast.SpreadExpr:
		// Handled at call/array sites; standalone occurrence is an error
		// in the parser, but be safe.
		return a.genExpr(e.X, fr)

	case *ast.YieldExpr:
		var v Var
		if e.X != nil {
			v = a.genExpr(e.X, fr)
		}
		if sink, ok := yieldSinkOf(fr); ok && e.X != nil {
			a.s.addEdge(v, sink)
			if e.Delegate {
				// yield*: the operand's elements (arrays, generators) are
				// yielded individually; the direct edge above covers the
				// lenient non-iterable-yields-itself case.
				a.addLoad(v, "$elem", sink)
			}
		}
		// The resumed value is unknown (p* under approximation).
		return a.s.newVar()
	}
	return a.s.newVar()
}

// genFuncBody generates the constraints of a function definition's body
// (idempotent per definition).
func (a *analyzer) genFuncBody(f *ast.FuncLit, outer *frame) {
	t := a.funcToken(f)
	fi := a.fnInfoFor(t)
	if fi.generated {
		return
	}
	fi.generated = true

	fr := &frame{vars: map[string]Var{}, parent: outer, fn: fi}
	if f.IsArrow {
		fr.thisVar = outer.thisVar // lexical this
	} else {
		fr.thisVar = fi.this
	}
	for i, name := range f.Params {
		fr.vars[name] = fi.params[i]
	}
	if !f.IsArrow {
		argsVar := a.s.newVar()
		a.s.addToken(argsVar, fi.argsTok)
		fr.vars["arguments"] = argsVar
	}
	// Named function expressions can reference themselves.
	if f.Name != "" {
		if _, ok := fr.vars[f.Name]; !ok {
			self := a.s.newVar()
			a.s.addToken(self, t)
			fr.vars[f.Name] = self
		}
	}

	savedFn := a.curFn
	a.curFn = f.Loc
	defer func() { a.curFn = savedFn }()

	if f.ExprBody != nil {
		v := a.genExpr(f.ExprBody, fr)
		a.s.addEdge(v, fi.ret)
		return
	}
	a.hoistInto(f.Body.Body, fr)
	for _, s := range f.Body.Body {
		a.genStmt(s, fr)
	}
}

func (a *analyzer) genAssign(e *ast.AssignExpr, fr *frame) Var {
	v := a.genExpr(e.Value, fr)
	switch target := e.Target.(type) {
	case *ast.Ident:
		tv, ok := fr.lookup(target.Name)
		if !ok {
			tv = a.globalVar(target.Name)
		}
		a.s.addEdge(v, tv)
		return tv
	case *ast.MemberExpr:
		base := a.genExpr(target.Obj, fr)
		if target.Computed {
			a.genExpr(target.PropExpr, fr)
			// Dynamic property write: ignored by the baseline ([DPW]
			// recovers the flow); recorded for the name-only ablation.
			a.dynWrites[target.Loc] = dynWriteInfo{base: base, value: v}
			// The interpreter attributes setter/set-trap invocations to the
			// assignment expression, not the member target.
			a.accessorStoreAny(base, v, e.Loc)
			return v
		}
		a.addStore(base, target.Prop, v)
		a.accessorStore(base, target.Prop, v, e.Loc)
		return v
	}
	return v
}

// genArgs evaluates call arguments, resolving spreads to element loads.
func (a *analyzer) genArgs(args []ast.Expr, fr *frame) []Var {
	out := make([]Var, len(args))
	for i, arg := range args {
		if sp, ok := arg.(*ast.SpreadExpr); ok {
			inner := a.genExpr(sp.X, fr)
			tmp := a.s.newVar()
			a.addLoad(inner, "$elem", tmp)
			out[i] = tmp
			continue
		}
		out[i] = a.genExpr(arg, fr)
	}
	return out
}

func (a *analyzer) genCall(e *ast.CallExpr, fr *frame) Var {
	site := e.Loc
	a.cg.AddSite(site, a.curFn)
	a.siteModule[site] = a.curModule
	result := a.s.newVar()

	var calleeVar Var
	var recvVar Var
	recvValid := false
	kind, prop := "direct", ""
	switch c := e.Callee.(type) {
	case *ast.MemberExpr:
		base := a.genExpr(c.Obj, fr)
		recvVar, recvValid = base, true
		if c.Computed {
			a.genExpr(c.PropExpr, fr)
			a.dynReadBases[c.Loc] = base
			calleeVar = a.dynReadVar(c.Loc)
			a.elemRead(base, calleeVar, c.Loc)
			a.accessorLoadAny(base, calleeVar, c.Loc)
			kind = "computed"
		} else {
			calleeVar = a.s.newVar()
			a.addLoad(base, c.Prop, calleeVar)
			// A getter may supply the callee; its invocation is attributed
			// to the member expression, the returned function to the call.
			a.accessorLoad(base, c.Prop, calleeVar, c.Loc)
			kind, prop = "member", c.Prop
		}
	default:
		calleeVar = a.genExpr(e.Callee, fr)
	}

	// Record literal require specifiers for the require native behavior.
	if len(e.Args) > 0 {
		if lit, ok := e.Args[0].(*ast.StringLit); ok {
			a.requireLits[site] = lit.Value
		}
	}
	// Record every literal string argument, for native models keyed on
	// literal property names (defineProperty, Reflect.get/set).
	for i, argE := range e.Args {
		if lit, ok := argE.(*ast.StringLit); ok {
			if a.strArgs[site] == nil {
				a.strArgs[site] = map[int]string{}
			}
			a.strArgs[site][i] = lit.Value
		}
	}

	argVars := a.genArgs(e.Args, fr)
	if a.provSites != nil {
		a.provSites[site] = provCallSite{kind: kind, prop: prop,
			callee: calleeVar, recv: recvVar, hasRecv: recvValid, args: argVars}
	}
	a.wireCall(site, calleeVar, recvVar, recvValid, argVars, result, 0, false)
	return result
}

func (a *analyzer) genNew(e *ast.NewExpr, fr *frame) Var {
	site := e.Loc
	a.cg.AddSite(site, a.curFn)
	a.siteModule[site] = a.curModule
	result := a.s.newVar()

	calleeVar := a.genExpr(e.Callee, fr)
	argVars := a.genArgs(e.Args, fr)

	newTok := a.allocToken(site, tokObject)
	a.s.addToken(result, newTok)
	if a.provSites != nil {
		a.provSites[site] = provCallSite{kind: "direct", callee: calleeVar, args: argVars}
	}
	a.wireCall(site, calleeVar, 0, false, argVars, result, newTok, true)
	return result
}

// wireCall registers the call constraint: as function (or native) tokens
// arrive at calleeVar, arguments, this, and results are wired, and call
// edges are recorded.
func (a *analyzer) wireCall(site loc.Loc, calleeVar, recvVar Var, recvValid bool, argVars []Var, result Var, newTok Token, isNew bool) {
	prev := a.pushCtx(RuleCall, site, "")
	a.onTokenCtx(calleeVar, func(t Token) {
		info := a.tokens[t]
		switch info.kind {
		case tokFunction:
			a.cg.AddEdge(site, info.fn.Loc)
			fi := a.fnInfoFor(t)
			a.wireArgs(fi, argVars)
			a.s.addEdge(fi.out, result)
			switch {
			case isNew:
				a.s.addToken(fi.this, newTok)
				// The new object's prototype chain comes from F.prototype.
				tmp := a.s.newVar()
				a.loadFromToken(t, "prototype", tmp)
				a.s.addEdge(tmp, a.protoVar(newTok))
			case recvValid:
				a.s.addEdge(recvVar, fi.this)
			}
		case tokNative:
			a.cg.MarkNativeResolved(site)
			if behavior, ok := a.tokenBehaviors[t]; ok {
				bprev := a.pushCtx(RuleNative, site, info.name)
				behavior(site, argVars, result)
				a.popCtx(bprev)
				return
			}
			a.nativeCall(info.name, site, recvVar, recvValid, argVars, result, newTok, isNew)
		}
	})
	a.popCtx(prev)
}

// wireArgs connects call arguments to a function's parameters, rest array,
// and arguments object.
func (a *analyzer) wireArgs(fi *fnInfo, argVars []Var) {
	for i, av := range argVars {
		if i < len(fi.params) && i != fi.restIdx {
			a.s.addEdge(av, fi.params[i])
		}
		if fi.restIdx >= 0 && i >= fi.restIdx {
			a.s.addEdge(av, fi.restElem)
		}
		a.s.addEdge(av, fi.argsElem)
	}
}
