package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/loc"
)

// ES-module support. The paper notes the approach "also works for ES
// modules"; this front end desugars ESM syntax to the CommonJS constructs
// the module system executes, so imports resolve through the same require
// machinery (and dynamic-import-style hints behave identically):
//
//	import def from 'm';              var def = require('m').default !== undefined
//	                                      ? require('m').default : require('m');
//	import {a, b as c} from 'm';      var __esm0 = require('m');   (a → __esm0.a,
//	                                      c → __esm0.b at every use site)
//	import * as ns from 'm';          var ns = require('m');
//	import 'm';                       require('m');
//	export function f() {}            function f() {} exports.f = f;
//	export var x = 1;                 exports.x = 1;   (x → exports.x at every
//	                                      use site in the module)
//	export default expr;              exports["default"] = expr;
//	export {a, b as c};               Object.defineProperty(exports, "a",
//	                                      {get: function () { return a; }}); …
//
// ESM bindings are *live*: a module mutating an exported variable after an
// importer has imported it must be visible through the import. A plain
// `var a = require('m').a` copy breaks that, so named imports and exported
// vars are rewritten at every use site to reads/writes through the module
// object, and export lists become defineProperty getters closing over the
// local binding. The rewrite (applyESMLiveBindings) runs after the whole
// module is parsed; a binding that is shadowed or redeclared anywhere in the
// module conservatively keeps the old snapshot desugaring, since use-site
// rewriting would then need full scope analysis to stay correct.
//
// Since "import" and "export" are not reserved words in this lexer, they
// arrive as identifiers; the statement parser intercepts them in statement
// position when the following tokens match module syntax.

// tryModuleStmt recognizes import/export statements. It consumes nothing
// unless the statement-position identifier is followed by module syntax.
func (p *parser) tryModuleStmt() (ast.Stmt, bool) {
	t := p.peek()
	if t.Kind != lexer.Ident {
		return nil, false
	}
	switch t.Text {
	case "import":
		n := p.peekAt(1)
		ok := n.Kind == lexer.String || // import 'm';
			n.Kind == lexer.Ident || // import def from 'm';
			(n.Kind == lexer.Punct && (n.Text == "{" || n.Text == "*"))
		if !ok {
			return nil, false
		}
		return p.importStmt(), true
	case "export":
		n := p.peekAt(1)
		ok := (n.Kind == lexer.Keyword && (n.Text == "function" || n.Text == "var" ||
			n.Text == "let" || n.Text == "const" || n.Text == "class" || n.Text == "async" ||
			n.Text == "default")) ||
			(n.Kind == lexer.Ident && n.Text == "default") ||
			(n.Kind == lexer.Punct && n.Text == "{")
		if !ok {
			return nil, false
		}
		return p.exportStmt(), true
	}
	return nil, false
}

// requireCallExpr builds require('name') at the given location.
func requireCallExpr(at loc.Loc, name string) *ast.CallExpr {
	return &ast.CallExpr{
		Callee: &ast.Ident{Name: "require", Loc: at},
		Args:   []ast.Expr{&ast.StringLit{Value: name, Loc: at}},
		Loc:    at,
	}
}

func (p *parser) importStmt() ast.Stmt {
	kw := p.next() // consume "import"
	at := kw.Loc(p.file)

	// import 'm';
	if p.at(lexer.String) {
		mod := p.next().Text
		p.expectSemi()
		return &ast.ExprStmt{X: requireCallExpr(at, mod)}
	}

	type binding struct {
		local    string
		imported string // "" = whole namespace, "default" = default export
	}
	var bindings []binding

	parseNamed := func() {
		p.expectPunct("{")
		for !p.atPunct("}") && !p.at(lexer.EOF) {
			imported, _ := p.identName()
			local := imported
			if p.at(lexer.Ident) && p.peek().Text == "as" {
				p.next()
				local, _ = p.identName()
			}
			bindings = append(bindings, binding{local: local, imported: imported})
			if !p.eatPunct(",") {
				break
			}
		}
		p.expectPunct("}")
	}

	switch {
	case p.atPunct("{"):
		parseNamed()
	case p.atPunct("*"):
		p.next()
		if !(p.at(lexer.Ident) && p.peek().Text == "as") {
			p.fail(p.peek().Loc(p.file), "expected 'as' after import *")
		}
		p.next()
		local, _ := p.identName()
		bindings = append(bindings, binding{local: local})
	default:
		// default import, optionally followed by named imports.
		local, _ := p.identName()
		bindings = append(bindings, binding{local: local, imported: "default"})
		if p.eatPunct(",") {
			if p.atPunct("{") {
				parseNamed()
			} else if p.atPunct("*") {
				p.next()
				p.next() // as
				ns, _ := p.identName()
				bindings = append(bindings, binding{local: ns})
			}
		}
	}

	if !(p.at(lexer.Ident) && p.peek().Text == "from") {
		p.fail(p.peek().Loc(p.file), "expected 'from' in import statement")
	}
	p.next()
	if !p.at(lexer.String) {
		p.fail(p.peek().Loc(p.file), "expected module specifier string")
	}
	mod := p.next().Text
	p.expectSemi()
	if len(bindings) == 0 {
		// import {} from 'm'; binds nothing, so it is import 'm';
		return &ast.ExprStmt{X: requireCallExpr(at, mod)}
	}

	decl := &ast.VarDecl{Kind: ast.Var, Loc: at}
	imp := &esmImport{decl: decl}
	for i, b := range bindings {
		var init ast.Expr = requireCallExpr(at, mod)
		switch b.imported {
		case "":
			// namespace import: the whole exports object (already live).
		case "default":
			// CommonJS interop: prefer .default when present, else the
			// exports value itself. Default imports stay snapshots: the
			// interop fallback has no single property to read through.
			withDefault := &ast.MemberExpr{Obj: requireCallExpr(at, mod), Prop: "default", Loc: at}
			init = &ast.LogicalExpr{Op: "??", L: withDefault, R: init, Loc: at}
		default:
			init = &ast.MemberExpr{Obj: init, Prop: b.imported, Loc: at}
			imp.bindings = append(imp.bindings, esmImportBinding{local: b.local, prop: b.imported, declIdx: i})
		}
		decl.Decls = append(decl.Decls, &ast.Declarator{Name: b.local, Init: init, Loc: at})
	}
	if len(imp.bindings) > 0 {
		p.esmImports = append(p.esmImports, imp)
	}
	return decl
}

func (p *parser) exportStmt() ast.Stmt {
	kw := p.next() // consume "export"
	at := kw.Loc(p.file)

	exportAssign := func(name string, v ast.Expr) ast.Stmt {
		return &ast.ExprStmt{X: &ast.AssignExpr{
			Op:     "=",
			Target: &ast.MemberExpr{Obj: &ast.Ident{Name: "exports", Loc: at}, Prop: name, Loc: at},
			Value:  v,
			Loc:    at,
		}}
	}

	// export default expr;
	if (p.at(lexer.Keyword) && p.peek().Text == "default") ||
		(p.at(lexer.Ident) && p.peek().Text == "default") {
		p.next()
		// export default function f() {} keeps the function hoistable-ish;
		// treat uniformly as an expression.
		var v ast.Expr
		if p.atKeyword("function") {
			v = p.funcLit(false)
		} else if p.atKeyword("class") {
			v, _ = p.classExpr()
		} else {
			v = p.assignExpr()
		}
		p.expectSemi()
		return exportAssign("default", v)
	}

	// export {a, b as c}; — re-exports are live: each name becomes a getter
	// on exports that reads the local binding at access time (and, after the
	// live-binding rewrite, reads through an import's module object).
	if p.atPunct("{") {
		p.next()
		block := &ast.BlockStmt{Loc: at}
		for !p.atPunct("}") && !p.at(lexer.EOF) {
			local, lloc := p.identName()
			exported := local
			if p.at(lexer.Ident) && p.peek().Text == "as" {
				p.next()
				exported, _ = p.identName()
			}
			block.Body = append(block.Body, exportGetterStmt(exported, local, lloc))
			if !p.eatPunct(",") {
				break
			}
		}
		p.expectPunct("}")
		p.expectSemi()
		return block
	}

	// export <declaration>
	decl := p.statement()
	block := &ast.BlockStmt{Loc: at, Body: []ast.Stmt{decl}}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		block.Body = append(block.Body, exportAssign(d.Fn.Name, &ast.Ident{Name: d.Fn.Name, Loc: at}))
	case *ast.VarDecl:
		rec := &esmExport{block: block, decl: d}
		for _, dd := range d.Decls {
			rec.names = append(rec.names, dd.Name)
			block.Body = append(block.Body, exportAssign(dd.Name, &ast.Ident{Name: dd.Name, Loc: dd.Loc}))
		}
		p.esmExports = append(p.esmExports, rec)
	default:
		p.fail(at, "unsupported export declaration")
	}
	return block
}

// ----------------------------------------------------- live-binding rewrite

// esmImport records one import statement's named bindings so the post-parse
// pass can upgrade them from snapshots to live reads.
type esmImport struct {
	decl     *ast.VarDecl
	bindings []esmImportBinding
}

type esmImportBinding struct {
	local   string
	prop    string // exported name on the source module
	declIdx int    // index of the snapshot declarator in decl.Decls
}

// esmExport records one `export var/let/const` statement.
type esmExport struct {
	block *ast.BlockStmt
	decl  *ast.VarDecl
	names []string
}

// esmRepl rewrites an identifier to obj.prop.
type esmRepl struct{ obj, prop string }

// exportAssignStmt builds `exports.name = v;`.
func exportAssignStmt(at loc.Loc, name string, v ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: &ast.AssignExpr{
		Op:     "=",
		Target: &ast.MemberExpr{Obj: &ast.Ident{Name: "exports", Loc: at}, Prop: name, Loc: at},
		Value:  v,
		Loc:    at,
	}}
}

// exportGetterStmt builds
//
//	Object.defineProperty(exports, "name", {get: function () { return local; }});
//
// making the re-export read the current local binding on every access.
func exportGetterStmt(name, local string, at loc.Loc) ast.Stmt {
	getter := &ast.FuncLit{
		RestIdx: -1,
		Body: &ast.BlockStmt{Loc: at, Body: []ast.Stmt{
			&ast.ReturnStmt{X: &ast.Ident{Name: local, Loc: at}, Loc: at},
		}},
		Loc: at,
	}
	desc := &ast.ObjectLit{Loc: at, Props: []*ast.Property{{Key: "get", Value: getter, Loc: at}}}
	return &ast.ExprStmt{X: &ast.CallExpr{
		Callee: &ast.MemberExpr{Obj: &ast.Ident{Name: "Object", Loc: at}, Prop: "defineProperty", Loc: at},
		Args:   []ast.Expr{&ast.Ident{Name: "exports", Loc: at}, &ast.StringLit{Value: name, Loc: at}, desc},
		Loc:    at,
	}}
}

// applyESMLiveBindings upgrades the snapshot desugarings recorded during
// parsing to live bindings. A binding qualifies only when its name is
// declared exactly once in the whole module (its own import/export
// declarator): any other declaration — a parameter, a nested var, a catch
// binding, a for-in target — could shadow it, and use-site rewriting without
// scope analysis would then change meaning. Unqualified bindings keep the
// snapshot desugaring.
func (p *parser) applyESMLiveBindings(prog *ast.Program) {
	if len(p.esmImports) == 0 && len(p.esmExports) == 0 {
		return
	}
	counts := declCounts(prog)
	repl := map[string]esmRepl{}

	tmpN := 0
	freshTmp := func() string {
		for {
			name := "__esm" + strconv.Itoa(tmpN)
			tmpN++
			if counts[name] == 0 {
				counts[name] = 1
				return name
			}
		}
	}

	for _, imp := range p.esmImports {
		var live []esmImportBinding
		for _, b := range imp.bindings {
			if counts[b.local] == 1 {
				live = append(live, b)
			}
		}
		if len(live) == 0 {
			continue
		}
		// One shared module-object temp per import statement; every live
		// local becomes a property read off it. The snapshot declarator's
		// require('m') call is reused so the module hint location survives.
		first := imp.decl.Decls[live[0].declIdx]
		req := first.Init.(*ast.MemberExpr).Obj
		tmp := freshTmp()
		drop := map[int]bool{}
		for _, b := range live {
			drop[b.declIdx] = true
			repl[b.local] = esmRepl{obj: tmp, prop: b.prop}
		}
		decls := []*ast.Declarator{{Name: tmp, Init: req, Loc: first.Loc}}
		for i, d := range imp.decl.Decls {
			if !drop[i] {
				decls = append(decls, d)
			}
		}
		imp.decl.Decls = decls
	}

	for _, exp := range p.esmExports {
		anyLive := false
		for _, name := range exp.names {
			if counts[name] == 1 {
				anyLive = true
				break
			}
		}
		if !anyLive {
			continue
		}
		// Live names collapse `var x = init; exports.x = x` into a single
		// `exports.x = init`; the rest keep the declaration+snapshot pair.
		var body []ast.Stmt
		for _, dd := range exp.decl.Decls {
			if counts[dd.Name] == 1 {
				var init ast.Expr = &ast.UndefinedLit{Loc: dd.Loc}
				if dd.Init != nil {
					init = dd.Init
				}
				body = append(body, exportAssignStmt(dd.Loc, dd.Name, init))
				repl[dd.Name] = esmRepl{obj: "exports", prop: dd.Name}
				continue
			}
			body = append(body,
				&ast.VarDecl{Kind: exp.decl.Kind, Decls: []*ast.Declarator{dd}, Loc: dd.Loc},
				exportAssignStmt(dd.Loc, dd.Name, &ast.Ident{Name: dd.Name, Loc: dd.Loc}))
		}
		exp.block.Body = body
	}

	if len(repl) > 0 {
		rw := &esmRewriter{repl: repl}
		rw.stmts(prog.Body)
	}
}

// declCounts counts every declaration of each name in the module: function
// names and parameters, var/let/const declarators, for-in loop targets, and
// catch parameters.
func declCounts(prog *ast.Program) map[string]int {
	counts := map[string]int{}
	ast.Walk(prog, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Name != "" {
				counts[n.Name]++
			}
			for _, p := range n.Params {
				counts[p]++
			}
		case *ast.VarDecl:
			for _, d := range n.Decls {
				counts[d.Name]++
			}
		case *ast.ForInStmt:
			// Counted even without a declaration kind: the loop writes the
			// name, and a string field cannot become a member expression.
			counts[n.Name]++
		case *ast.TryStmt:
			if n.CatchParam != "" {
				counts[n.CatchParam]++
			}
		}
		return true
	})
	return counts
}

// esmRewriter replaces identifier uses with member expressions, in place.
// Scope tracking is unnecessary: qualifying names are declared nowhere else
// in the module (see applyESMLiveBindings), so every occurrence is a use of
// the module binding.
type esmRewriter struct{ repl map[string]esmRepl }

func (rw *esmRewriter) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		rw.stmt(s)
	}
}

func (rw *esmRewriter) block(b *ast.BlockStmt) {
	if b != nil {
		rw.stmts(b.Body)
	}
}

func (rw *esmRewriter) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		for _, d := range s.Decls {
			d.Init = rw.expr(d.Init)
		}
	case *ast.FuncDecl:
		rw.expr(s.Fn)
	case *ast.ExprStmt:
		s.X = rw.expr(s.X)
	case *ast.BlockStmt:
		rw.block(s)
	case *ast.IfStmt:
		s.Cond = rw.expr(s.Cond)
		rw.stmt(s.Then)
		if s.Else != nil {
			rw.stmt(s.Else)
		}
	case *ast.WhileStmt:
		s.Cond = rw.expr(s.Cond)
		rw.stmt(s.Body)
	case *ast.DoWhileStmt:
		rw.stmt(s.Body)
		s.Cond = rw.expr(s.Cond)
	case *ast.ForStmt:
		if s.Init != nil {
			rw.stmt(s.Init)
		}
		s.Cond = rw.expr(s.Cond)
		s.Post = rw.expr(s.Post)
		rw.stmt(s.Body)
	case *ast.ForInStmt:
		s.Obj = rw.expr(s.Obj)
		rw.stmt(s.Body)
	case *ast.ReturnStmt:
		s.X = rw.expr(s.X)
	case *ast.ThrowStmt:
		s.X = rw.expr(s.X)
	case *ast.TryStmt:
		rw.block(s.Block)
		rw.block(s.Catch)
		rw.block(s.Finally)
	case *ast.SwitchStmt:
		s.Disc = rw.expr(s.Disc)
		for _, c := range s.Cases {
			c.Test = rw.expr(c.Test)
			rw.stmts(c.Body)
		}
	}
}

func (rw *esmRewriter) expr(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		if r, ok := rw.repl[e.Name]; ok {
			return &ast.MemberExpr{
				Obj:  &ast.Ident{Name: r.obj, Loc: e.Loc},
				Prop: r.prop,
				Loc:  e.Loc,
			}
		}
	case *ast.TemplateLit:
		for i := range e.Exprs {
			e.Exprs[i] = rw.expr(e.Exprs[i])
		}
	case *ast.ArrayLit:
		for i := range e.Elems {
			e.Elems[i] = rw.expr(e.Elems[i])
		}
	case *ast.ObjectLit:
		for _, p := range e.Props {
			p.Computed = rw.expr(p.Computed)
			p.Value = rw.expr(p.Value)
		}
	case *ast.FuncLit:
		rw.block(e.Body)
		e.ExprBody = rw.expr(e.ExprBody)
	case *ast.CallExpr:
		e.Callee = rw.expr(e.Callee)
		for i := range e.Args {
			e.Args[i] = rw.expr(e.Args[i])
		}
	case *ast.NewExpr:
		e.Callee = rw.expr(e.Callee)
		for i := range e.Args {
			e.Args[i] = rw.expr(e.Args[i])
		}
	case *ast.MemberExpr:
		e.Obj = rw.expr(e.Obj)
		e.PropExpr = rw.expr(e.PropExpr)
	case *ast.AssignExpr:
		e.Target = rw.expr(e.Target)
		e.Value = rw.expr(e.Value)
	case *ast.BinaryExpr:
		e.L = rw.expr(e.L)
		e.R = rw.expr(e.R)
	case *ast.LogicalExpr:
		e.L = rw.expr(e.L)
		e.R = rw.expr(e.R)
	case *ast.UnaryExpr:
		e.X = rw.expr(e.X)
	case *ast.UpdateExpr:
		e.X = rw.expr(e.X)
	case *ast.CondExpr:
		e.Cond = rw.expr(e.Cond)
		e.Then = rw.expr(e.Then)
		e.Else = rw.expr(e.Else)
	case *ast.SeqExpr:
		for i := range e.Exprs {
			e.Exprs[i] = rw.expr(e.Exprs[i])
		}
	case *ast.SpreadExpr:
		e.X = rw.expr(e.X)
	case *ast.YieldExpr:
		e.X = rw.expr(e.X)
	}
	return e
}
