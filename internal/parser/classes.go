package parser

import (
	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/loc"
)

// Class support. Classes are desugared at parse time into the constructs
// the rest of the system already handles — constructor functions, prototype
// objects, and Object.defineProperty for accessors — so the interpreter,
// the approximate interpreter, and the static analysis all see ordinary
// prototype-based code:
//
//	class Name extends Super {            var Name = (function(SuperRef) {
//	  constructor(a) {                      function Name(a) {
//	    super(a);                             SuperRef.call(this, a);
//	    this.x = a;                           this.x = a;
//	  }                                     }
//	  m(b) { return super.m(b); }           Name.prototype = Object.create(SuperRef.prototype);
//	  static s() {}                         Name.prototype.constructor = Name;
//	  get g() { return 1; }         ⇒       Name.prototype.m = function m(b) {
//	}                                         return SuperRef.prototype.m.call(this, b);
//	                                        };
//	                                        Name.s = function s() {};
//	                                        Object.defineProperty(Name.prototype, "g",
//	                                          {get: function g() { return 1; }});
//	                                        return Name;
//	                                      })(Super);
//
// super references are rewritten against the hidden SuperRef parameter, so
// closures and the prototype chain behave as in real class semantics for
// the supported subset (no computed method names, no private fields).

// classMember is one parsed member before desugaring.
type classMember struct {
	name     string
	fn       *ast.FuncLit
	isStatic bool
	kind     ast.PropKind // NormalProp for methods, accessor kinds for get/set
	fieldVal ast.Expr     // non-nil for instance fields (name = expr)
	loc      loc.Loc
}

// classExpr parses a class declaration or expression starting at the
// `class` keyword and returns the desugared expression plus the class name
// ("" for anonymous class expressions).
func (p *parser) classExpr() (ast.Expr, string) {
	kw := p.expectKeyword("class")
	name := ""
	if p.at(lexer.Ident) || (p.at(lexer.Keyword) && lexer.IsContextualKeyword(p.peek().Text)) {
		name, _ = p.identName()
	}
	var superExpr ast.Expr
	if p.eatKeyword("extends") {
		superExpr = p.callExpr() // LeftHandSideExpression
	}
	members := p.classBody()
	return p.desugarClass(kw.Loc(p.file), name, superExpr, members), name
}

func (p *parser) classBody() []*classMember {
	p.expectPunct("{")
	var members []*classMember
	for !p.atPunct("}") && !p.at(lexer.EOF) {
		if p.eatPunct(";") {
			continue
		}
		members = append(members, p.classMember())
	}
	p.expectPunct("}")
	return members
}

func (p *parser) classMember() *classMember {
	m := &classMember{kind: ast.NormalProp, loc: p.peek().Loc(p.file)}

	if p.atKeyword("static") {
		// `static` may itself be a method name (static() {}).
		if n := p.peekAt(1); !(n.Kind == lexer.Punct && (n.Text == "(" || n.Text == "=")) {
			p.next()
			m.isStatic = true
		}
	}

	isAsync := false
	if p.atKeyword("async") {
		if n := p.peekAt(1); !(n.Kind == lexer.Punct && (n.Text == "(" || n.Text == "=")) {
			p.next()
			isAsync = true
		}
	}

	if p.atKeyword("get") || p.atKeyword("set") {
		// Accessor unless `get`/`set` is itself the member name.
		if n := p.peekAt(1); !(n.Kind == lexer.Punct && (n.Text == "(" || n.Text == "=")) {
			if p.peek().Text == "get" {
				m.kind = ast.GetterProp
			} else {
				m.kind = ast.SetterProp
			}
			p.next()
		}
	}

	// Member name: identifier, keyword, string, or number.
	t := p.peek()
	switch {
	case t.Kind == lexer.Ident || t.Kind == lexer.Keyword:
		p.next()
		m.name = t.Text
	case t.Kind == lexer.String:
		p.next()
		m.name = t.Text
	case t.Kind == lexer.Number:
		p.next()
		m.name = trimFloat(t.Num)
	default:
		p.fail(t.Loc(p.file), "expected class member name but found %s", t)
	}

	switch {
	case p.atPunct("("):
		f := &ast.FuncLit{Name: m.name, Loc: m.loc, RestIdx: -1, IsAsync: isAsync}
		p.parseParams(f)
		f.Body = p.blockStmt()
		m.fn = f
	case p.eatPunct("="):
		// Instance (or static) field.
		m.fieldVal = p.assignExpr()
		p.expectSemi()
	default:
		// Bare field declaration: `x;` — initializes to undefined.
		m.fieldVal = &ast.UndefinedLit{Loc: m.loc}
		p.expectSemi()
	}
	return m
}

// desugarClass builds the IIFE shown in the package comment.
func (p *parser) desugarClass(at loc.Loc, name string, superExpr ast.Expr, members []*classMember) ast.Expr {
	ctorName := name
	if ctorName == "" {
		ctorName = "AnonymousClass"
	}
	const superRef = "$super"
	hasSuper := superExpr != nil

	ident := func(n string) *ast.Ident { return &ast.Ident{Name: n, Loc: at} }
	ctorIdent := func() *ast.Ident { return ident(ctorName) }
	protoOf := func(base ast.Expr) ast.Expr {
		return &ast.MemberExpr{Obj: base, Prop: "prototype", Loc: at}
	}

	// Locate the constructor and the instance fields.
	var ctor *ast.FuncLit
	var fields []*classMember
	for _, m := range members {
		if m.fn != nil && m.name == "constructor" && !m.isStatic {
			ctor = m.fn
		}
		if m.fieldVal != nil && !m.isStatic {
			fields = append(fields, m)
		}
	}
	if ctor == nil {
		// Default constructor: super(...arguments) when extending.
		body := &ast.BlockStmt{Loc: at}
		if hasSuper {
			body.Body = append(body.Body, &ast.ExprStmt{X: &ast.CallExpr{
				Callee: &ast.MemberExpr{Obj: ident(superRef), Prop: "apply", Loc: at},
				Args:   []ast.Expr{&ast.ThisExpr{Loc: at}, ident("arguments")},
				Loc:    at,
			}})
		}
		ctor = &ast.FuncLit{Name: ctorName, Body: body, RestIdx: -1, Loc: at}
	} else {
		ctor.Name = ctorName
	}

	// Instance fields initialize at the top of the constructor.
	var fieldInits []ast.Stmt
	for _, f := range fields {
		fieldInits = append(fieldInits, &ast.ExprStmt{X: &ast.AssignExpr{
			Op:     "=",
			Target: &ast.MemberExpr{Obj: &ast.ThisExpr{Loc: f.loc}, Prop: f.name, Loc: f.loc},
			Value:  f.fieldVal,
			Loc:    f.loc,
		}})
	}
	ctor.Body.Body = append(fieldInits, ctor.Body.Body...)

	// Rewrite super references in the constructor and every method.
	if hasSuper {
		rewriteSuper(ctor, superRef)
	}

	wrapper := &ast.BlockStmt{Loc: at}
	wrapper.Body = append(wrapper.Body, &ast.FuncDecl{Fn: ctor})

	if hasSuper {
		// Name.prototype = Object.create($super.prototype);
		wrapper.Body = append(wrapper.Body, &ast.ExprStmt{X: &ast.AssignExpr{
			Op:     "=",
			Target: protoOf(ctorIdent()),
			Value: &ast.CallExpr{
				Callee: &ast.MemberExpr{Obj: ident("Object"), Prop: "create", Loc: at},
				Args:   []ast.Expr{protoOf(ident(superRef))},
				Loc:    at,
			},
			Loc: at,
		}})
		// Name.prototype.constructor = Name;
		wrapper.Body = append(wrapper.Body, &ast.ExprStmt{X: &ast.AssignExpr{
			Op:     "=",
			Target: &ast.MemberExpr{Obj: protoOf(ctorIdent()), Prop: "constructor", Loc: at},
			Value:  ctorIdent(),
			Loc:    at,
		}})
	}

	// Methods, static methods, and accessors.
	accessors := map[string][2]*ast.FuncLit{} // proto accessors: [getter, setter]
	staticAccessors := map[string][2]*ast.FuncLit{}
	for _, m := range members {
		if m.fn == nil || (m.name == "constructor" && !m.isStatic) {
			continue
		}
		if hasSuper {
			rewriteSuper(m.fn, superRef)
		}
		if m.kind != ast.NormalProp {
			table := accessors
			if m.isStatic {
				table = staticAccessors
			}
			pair := table[m.name]
			if m.kind == ast.GetterProp {
				pair[0] = m.fn
			} else {
				pair[1] = m.fn
			}
			table[m.name] = pair
			continue
		}
		var target ast.Expr
		if m.isStatic {
			target = &ast.MemberExpr{Obj: ctorIdent(), Prop: m.name, Loc: m.loc}
		} else {
			target = &ast.MemberExpr{Obj: protoOf(ctorIdent()), Prop: m.name, Loc: m.loc}
		}
		wrapper.Body = append(wrapper.Body, &ast.ExprStmt{X: &ast.AssignExpr{
			Op: "=", Target: target, Value: m.fn, Loc: m.loc,
		}})
	}
	// Static fields.
	for _, m := range members {
		if m.fieldVal == nil || !m.isStatic {
			continue
		}
		wrapper.Body = append(wrapper.Body, &ast.ExprStmt{X: &ast.AssignExpr{
			Op:     "=",
			Target: &ast.MemberExpr{Obj: ctorIdent(), Prop: m.name, Loc: m.loc},
			Value:  m.fieldVal,
			Loc:    m.loc,
		}})
	}
	emitAccessors := func(table map[string][2]*ast.FuncLit, base func() ast.Expr) {
		// Deterministic order: sort names.
		var names []string
		for n := range table {
			names = append(names, n)
		}
		sortStrings(names)
		for _, n := range names {
			pair := table[n]
			desc := &ast.ObjectLit{Loc: at}
			if pair[0] != nil {
				desc.Props = append(desc.Props, &ast.Property{Key: "get", Value: pair[0], Loc: at})
			}
			if pair[1] != nil {
				desc.Props = append(desc.Props, &ast.Property{Key: "set", Value: pair[1], Loc: at})
			}
			wrapper.Body = append(wrapper.Body, &ast.ExprStmt{X: &ast.CallExpr{
				Callee: &ast.MemberExpr{Obj: ident("Object"), Prop: "defineProperty", Loc: at},
				Args:   []ast.Expr{base(), &ast.StringLit{Value: n, Loc: at}, desc},
				Loc:    at,
			}})
		}
	}
	emitAccessors(accessors, func() ast.Expr { return protoOf(ctorIdent()) })
	emitAccessors(staticAccessors, func() ast.Expr { return ctorIdent() })

	wrapper.Body = append(wrapper.Body, &ast.ReturnStmt{X: ctorIdent(), Loc: at})

	iife := &ast.FuncLit{RestIdx: -1, Body: wrapper, Loc: at}
	var args []ast.Expr
	if hasSuper {
		iife.Params = []string{superRef}
		args = []ast.Expr{superExpr}
	}
	return &ast.CallExpr{Callee: iife, Args: args, Loc: at}
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// rewriteSuper rewrites super(...) and super.m(...) / super.m references in
// fn's body against the hidden $super binding. The rewrite stops at nested
// non-arrow functions (their super belongs to an enclosing class in real
// JS, which the subset does not support; arrows inherit the binding).
func rewriteSuper(fn *ast.FuncLit, superRef string) {
	var rewriteExpr func(e ast.Expr) ast.Expr
	var rewriteStmt func(s ast.Stmt)

	isSuperIdent := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "super"
	}

	rewriteExpr = func(e ast.Expr) ast.Expr {
		switch e := e.(type) {
		case nil:
			return nil
		case *ast.Ident:
			return e
		case *ast.CallExpr:
			// super(args) → $super.call(this, args)
			if isSuperIdent(e.Callee) {
				args := []ast.Expr{&ast.ThisExpr{Loc: e.Loc}}
				for _, a := range e.Args {
					args = append(args, rewriteExpr(a))
				}
				return &ast.CallExpr{
					Callee: &ast.MemberExpr{Obj: &ast.Ident{Name: superRef, Loc: e.Loc}, Prop: "call", Loc: e.Loc},
					Args:   args,
					Loc:    e.Loc,
				}
			}
			// super.m(args) → $super.prototype.m.call(this, args)
			if mem, ok := e.Callee.(*ast.MemberExpr); ok && isSuperIdent(mem.Obj) && !mem.Computed {
				args := []ast.Expr{&ast.ThisExpr{Loc: e.Loc}}
				for _, a := range e.Args {
					args = append(args, rewriteExpr(a))
				}
				superMethod := &ast.MemberExpr{
					Obj: &ast.MemberExpr{
						Obj:  &ast.Ident{Name: superRef, Loc: mem.Loc},
						Prop: "prototype", Loc: mem.Loc,
					},
					Prop: mem.Prop, Loc: mem.Loc,
				}
				return &ast.CallExpr{
					Callee: &ast.MemberExpr{Obj: superMethod, Prop: "call", Loc: e.Loc},
					Args:   args,
					Loc:    e.Loc,
				}
			}
			e.Callee = rewriteExpr(e.Callee)
			for i := range e.Args {
				e.Args[i] = rewriteExpr(e.Args[i])
			}
			return e
		case *ast.MemberExpr:
			// Bare super.m → $super.prototype.m
			if isSuperIdent(e.Obj) && !e.Computed {
				return &ast.MemberExpr{
					Obj: &ast.MemberExpr{
						Obj:  &ast.Ident{Name: superRef, Loc: e.Loc},
						Prop: "prototype", Loc: e.Loc,
					},
					Prop: e.Prop, Loc: e.Loc,
				}
			}
			e.Obj = rewriteExpr(e.Obj)
			e.PropExpr = rewriteExpr(e.PropExpr)
			return e
		case *ast.AssignExpr:
			e.Target = rewriteExpr(e.Target)
			e.Value = rewriteExpr(e.Value)
			return e
		case *ast.BinaryExpr:
			e.L, e.R = rewriteExpr(e.L), rewriteExpr(e.R)
			return e
		case *ast.LogicalExpr:
			e.L, e.R = rewriteExpr(e.L), rewriteExpr(e.R)
			return e
		case *ast.UnaryExpr:
			e.X = rewriteExpr(e.X)
			return e
		case *ast.UpdateExpr:
			e.X = rewriteExpr(e.X)
			return e
		case *ast.CondExpr:
			e.Cond, e.Then, e.Else = rewriteExpr(e.Cond), rewriteExpr(e.Then), rewriteExpr(e.Else)
			return e
		case *ast.SeqExpr:
			for i := range e.Exprs {
				e.Exprs[i] = rewriteExpr(e.Exprs[i])
			}
			return e
		case *ast.NewExpr:
			e.Callee = rewriteExpr(e.Callee)
			for i := range e.Args {
				e.Args[i] = rewriteExpr(e.Args[i])
			}
			return e
		case *ast.ArrayLit:
			for i := range e.Elems {
				e.Elems[i] = rewriteExpr(e.Elems[i])
			}
			return e
		case *ast.ObjectLit:
			for _, pr := range e.Props {
				pr.Computed = rewriteExpr(pr.Computed)
				pr.Value = rewriteExpr(pr.Value)
			}
			return e
		case *ast.TemplateLit:
			for i := range e.Exprs {
				e.Exprs[i] = rewriteExpr(e.Exprs[i])
			}
			return e
		case *ast.SpreadExpr:
			e.X = rewriteExpr(e.X)
			return e
		case *ast.FuncLit:
			// Arrows inherit the super binding; ordinary nested functions
			// do not (and cannot legally contain super in real JS).
			if e.IsArrow {
				if e.ExprBody != nil {
					e.ExprBody = rewriteExpr(e.ExprBody)
				}
				if e.Body != nil {
					for _, st := range e.Body.Body {
						rewriteStmt(st)
					}
				}
			}
			return e
		default:
			return e
		}
	}

	rewriteStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.VarDecl:
			for _, d := range s.Decls {
				d.Init = rewriteExpr(d.Init)
			}
		case *ast.ExprStmt:
			s.X = rewriteExpr(s.X)
		case *ast.BlockStmt:
			for _, st := range s.Body {
				rewriteStmt(st)
			}
		case *ast.IfStmt:
			s.Cond = rewriteExpr(s.Cond)
			rewriteStmt(s.Then)
			rewriteStmt(s.Else)
		case *ast.WhileStmt:
			s.Cond = rewriteExpr(s.Cond)
			rewriteStmt(s.Body)
		case *ast.DoWhileStmt:
			rewriteStmt(s.Body)
			s.Cond = rewriteExpr(s.Cond)
		case *ast.ForStmt:
			rewriteStmt(s.Init)
			s.Cond = rewriteExpr(s.Cond)
			s.Post = rewriteExpr(s.Post)
			rewriteStmt(s.Body)
		case *ast.ForInStmt:
			s.Obj = rewriteExpr(s.Obj)
			rewriteStmt(s.Body)
		case *ast.ReturnStmt:
			s.X = rewriteExpr(s.X)
		case *ast.ThrowStmt:
			s.X = rewriteExpr(s.X)
		case *ast.TryStmt:
			rewriteStmt(s.Block)
			if s.Catch != nil {
				rewriteStmt(s.Catch)
			}
			if s.Finally != nil {
				rewriteStmt(s.Finally)
			}
		case *ast.SwitchStmt:
			s.Disc = rewriteExpr(s.Disc)
			for _, c := range s.Cases {
				c.Test = rewriteExpr(c.Test)
				for _, st := range c.Body {
					rewriteStmt(st)
				}
			}
		}
	}

	if fn.ExprBody != nil {
		fn.ExprBody = rewriteExpr(fn.ExprBody)
	}
	if fn.Body != nil {
		for _, st := range fn.Body.Body {
			rewriteStmt(st)
		}
	}
}
