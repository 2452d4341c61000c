package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return prog
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse("test.js", src)
	if err == nil {
		t.Fatalf("expected parse error for:\n%s", src)
	}
	return err
}

func TestVarDecl(t *testing.T) {
	prog := parse(t, "var a = 1, b;\nlet c = 'x';\nconst d = true;")
	if len(prog.Body) != 3 {
		t.Fatalf("got %d statements", len(prog.Body))
	}
	vd := prog.Body[0].(*ast.VarDecl)
	if vd.Kind != ast.Var || len(vd.Decls) != 2 {
		t.Errorf("var decl = %+v", vd)
	}
	if vd.Decls[0].Name != "a" || vd.Decls[1].Init != nil {
		t.Errorf("declarators wrong: %+v", vd.Decls)
	}
	if prog.Body[1].(*ast.VarDecl).Kind != ast.Let {
		t.Error("let not recognized")
	}
	if prog.Body[2].(*ast.VarDecl).Kind != ast.Const {
		t.Error("const not recognized")
	}
}

func TestFunctionForms(t *testing.T) {
	prog := parse(t, `
function decl(a, b) { return a + b; }
var expr = function(x) { return x; };
var named = function me(x) { return me; };
var arrow1 = x => x + 1;
var arrow2 = (a, b) => { return a * b; };
var arrow0 = () => 42;
var rest = function(a, ...rest) { return rest; };
`)
	fd := prog.Body[0].(*ast.FuncDecl)
	if fd.Fn.Name != "decl" || len(fd.Fn.Params) != 2 {
		t.Errorf("decl = %+v", fd.Fn)
	}
	arrow1 := prog.Body[3].(*ast.VarDecl).Decls[0].Init.(*ast.FuncLit)
	if !arrow1.IsArrow || arrow1.ExprBody == nil || len(arrow1.Params) != 1 {
		t.Errorf("arrow1 = %+v", arrow1)
	}
	arrow2 := prog.Body[4].(*ast.VarDecl).Decls[0].Init.(*ast.FuncLit)
	if !arrow2.IsArrow || arrow2.Body == nil {
		t.Errorf("arrow2 = %+v", arrow2)
	}
	restFn := prog.Body[6].(*ast.VarDecl).Decls[0].Init.(*ast.FuncLit)
	if restFn.RestIdx != 1 {
		t.Errorf("rest idx = %d", restFn.RestIdx)
	}
}

func TestMemberAndCall(t *testing.T) {
	prog := parse(t, "a.b.c(1)[d](e.f);")
	// Outer node: call with args (e.f)
	call := prog.Body[0].(*ast.ExprStmt).X.(*ast.CallExpr)
	if len(call.Args) != 1 {
		t.Fatalf("outer args = %d", len(call.Args))
	}
	dyn := call.Callee.(*ast.MemberExpr)
	if !dyn.Computed {
		t.Fatal("expected computed member for [d]")
	}
	inner := dyn.Obj.(*ast.CallExpr)
	mem := inner.Callee.(*ast.MemberExpr)
	if mem.Prop != "c" || mem.Computed {
		t.Errorf("inner member = %+v", mem)
	}
}

func TestDynamicPropertyAccess(t *testing.T) {
	prog := parse(t, `obj[key] = val; x = obj[key];`)
	asn := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	target := asn.Target.(*ast.MemberExpr)
	if !target.Computed {
		t.Error("write target should be computed")
	}
	read := prog.Body[1].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.MemberExpr)
	if !read.Computed {
		t.Error("read should be computed")
	}
}

func TestObjectLiteral(t *testing.T) {
	prog := parse(t, `var o = {a: 1, "b c": 2, [k]: 3, short, method(x) { return x; }, get g() { return 1; }, set s(v) { this.v = v; }};`)
	lit := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.ObjectLit)
	if len(lit.Props) != 7 {
		t.Fatalf("props = %d", len(lit.Props))
	}
	if lit.Props[1].Key != "b c" {
		t.Errorf("string key = %q", lit.Props[1].Key)
	}
	if lit.Props[2].Computed == nil {
		t.Error("computed key missing")
	}
	if lit.Props[3].Key != "short" {
		t.Errorf("shorthand key = %q", lit.Props[3].Key)
	}
	if _, ok := lit.Props[4].Value.(*ast.FuncLit); !ok {
		t.Error("method shorthand not a function")
	}
	if lit.Props[5].Kind != ast.GetterProp || lit.Props[6].Kind != ast.SetterProp {
		t.Error("accessors not recognized")
	}
}

func TestGetSetAsPlainKeys(t *testing.T) {
	prog := parse(t, `var o = {get: 1, set: 2};`)
	lit := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.ObjectLit)
	if lit.Props[0].Key != "get" || lit.Props[0].Kind != ast.NormalProp {
		t.Errorf("get as key = %+v", lit.Props[0])
	}
}

func TestControlFlow(t *testing.T) {
	parse(t, `
if (a) b(); else { c(); }
while (x < 10) x++;
do { y--; } while (y);
for (var i = 0; i < n; i++) sum += i;
for (;;) { break; }
for (var k in obj) visit(k);
for (const v of list) use(v);
for (k in obj) {}
switch (x) { case 1: a(); break; case 2: default: b(); }
try { f(); } catch (e) { g(e); } finally { h(); }
try { f(); } catch { g(); }
throw new Error("boom");
`)
}

func TestForInVsForClassic(t *testing.T) {
	prog := parse(t, "for (var k in o) {}\nfor (var i = 0; i < 2; i++) {}")
	if fi, ok := prog.Body[0].(*ast.ForInStmt); !ok || fi.IsOf || fi.Name != "k" {
		t.Errorf("for-in = %+v", prog.Body[0])
	}
	if _, ok := prog.Body[1].(*ast.ForStmt); !ok {
		t.Errorf("classic for = %T", prog.Body[1])
	}
}

func TestPrecedence(t *testing.T) {
	prog := parse(t, "x = 1 + 2 * 3;")
	add := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	mul := add.R.(*ast.BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("right = %s", mul.Op)
	}

	prog = parse(t, "x = a || b && c;")
	or := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.LogicalExpr)
	if or.Op != "||" {
		t.Fatalf("top op = %s", or.Op)
	}
	if or.R.(*ast.LogicalExpr).Op != "&&" {
		t.Error("&& should bind tighter than ||")
	}
}

func TestExponentRightAssoc(t *testing.T) {
	prog := parse(t, "x = 2 ** 3 ** 2;")
	top := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.BinaryExpr)
	if _, ok := top.R.(*ast.BinaryExpr); !ok {
		t.Error("** should be right-associative")
	}
}

func TestAssignmentChain(t *testing.T) {
	prog := parse(t, "a = b = c;")
	outer := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	if _, ok := outer.Value.(*ast.AssignExpr); !ok {
		t.Error("assignment should be right-associative")
	}
	parseErr(t, "1 = x;")
}

func TestModuleExportsPattern(t *testing.T) {
	// The canonical CommonJS idiom from the paper's Fig. 1b.
	prog := parse(t, "exports = module.exports = createApplication;")
	outer := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	inner := outer.Value.(*ast.AssignExpr)
	mem := inner.Target.(*ast.MemberExpr)
	if mem.Prop != "exports" {
		t.Errorf("inner target = %+v", mem)
	}
}

func TestNewExpressions(t *testing.T) {
	prog := parse(t, "var a = new Foo(1); var b = new ns.Bar(); var c = new Baz;")
	ne := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.NewExpr)
	if len(ne.Args) != 1 {
		t.Errorf("args = %d", len(ne.Args))
	}
	ne2 := prog.Body[1].(*ast.VarDecl).Decls[0].Init.(*ast.NewExpr)
	if _, ok := ne2.Callee.(*ast.MemberExpr); !ok {
		t.Error("new ns.Bar callee should be a member expr")
	}
	ne3 := prog.Body[2].(*ast.VarDecl).Decls[0].Init.(*ast.NewExpr)
	if len(ne3.Args) != 0 {
		t.Error("new Baz should have no args")
	}
}

func TestNewCallBinding(t *testing.T) {
	// new a.b(c).d(e) — args (c) bind to new; then .d(e) is a call.
	prog := parse(t, "x = new a.b(c).d(e);")
	call := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.CallExpr)
	mem := call.Callee.(*ast.MemberExpr)
	if _, ok := mem.Obj.(*ast.NewExpr); !ok {
		t.Errorf("expected new under member, got %T", mem.Obj)
	}
}

func TestASI(t *testing.T) {
	parse(t, "var a = 1\nvar b = 2\na + b")
	parse(t, "return")
	prog := parse(t, "function f() {\n  return\n  1\n}")
	fn := prog.Body[0].(*ast.FuncDecl).Fn
	ret := fn.Body.Body[0].(*ast.ReturnStmt)
	if ret.X != nil {
		t.Error("restricted production: return across newline must return undefined")
	}
	parseErr(t, "var a = 1 var b = 2")
}

func TestTemplateLiteral(t *testing.T) {
	prog := parse(t, "var s = `a${x}b${y + 1}c`;")
	lit := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.TemplateLit)
	if len(lit.Quasis) != 3 || len(lit.Exprs) != 2 {
		t.Fatalf("quasis=%d exprs=%d", len(lit.Quasis), len(lit.Exprs))
	}
	if lit.Quasis[0] != "a" || lit.Quasis[1] != "b" || lit.Quasis[2] != "c" {
		t.Errorf("quasis = %q", lit.Quasis)
	}
	if _, ok := lit.Exprs[1].(*ast.BinaryExpr); !ok {
		t.Error("second interpolation should be a binary expr")
	}
	// An interpolation is one complete expression: an incomplete one and
	// one with trailing input are errors.
	parseErr(t, "var s = `${1 +}`;")
	parseErr(t, "var s = `${1 2}`;")
}

func TestTemplateLocations(t *testing.T) {
	prog := parse(t, "var s = `ab${x}`;")
	lit := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.TemplateLit)
	x := lit.Exprs[0].(*ast.Ident)
	// `ab${x}` — backtick at col 9, so x at col 14.
	if x.Loc.Line != 1 || x.Loc.Col != 14 {
		t.Errorf("interpolated x at %v", x.Loc)
	}
}

func TestSpread(t *testing.T) {
	prog := parse(t, "f(...args); var a = [1, ...rest];")
	call := prog.Body[0].(*ast.ExprStmt).X.(*ast.CallExpr)
	if _, ok := call.Args[0].(*ast.SpreadExpr); !ok {
		t.Error("call spread missing")
	}
	arr := prog.Body[1].(*ast.VarDecl).Decls[0].Init.(*ast.ArrayLit)
	if _, ok := arr.Elems[1].(*ast.SpreadExpr); !ok {
		t.Error("array spread missing")
	}
}

func TestUnaryAndUpdate(t *testing.T) {
	prog := parse(t, "x = typeof a; y = !b; z = -c; i++; --j; delete o.p; void 0;")
	u := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.UnaryExpr)
	if u.Op != "typeof" {
		t.Errorf("op = %s", u.Op)
	}
	post := prog.Body[3].(*ast.ExprStmt).X.(*ast.UpdateExpr)
	if post.Prefix || post.Op != "++" {
		t.Errorf("postfix = %+v", post)
	}
	pre := prog.Body[4].(*ast.ExprStmt).X.(*ast.UpdateExpr)
	if !pre.Prefix || pre.Op != "--" {
		t.Errorf("prefix = %+v", pre)
	}
}

func TestConditionalAndSequence(t *testing.T) {
	prog := parse(t, "x = a ? b : c; y = (1, 2, 3);")
	if _, ok := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.CondExpr); !ok {
		t.Error("ternary missing")
	}
	seq := prog.Body[1].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.SeqExpr)
	if len(seq.Exprs) != 3 {
		t.Errorf("seq = %d", len(seq.Exprs))
	}
}

func TestRegexLiteral(t *testing.T) {
	prog := parse(t, `var re = /a+b/gi; s.replace(/x/, "y");`)
	re := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.RegexLit)
	if re.Pattern != "a+b" || re.Flags != "gi" {
		t.Errorf("regex = %+v", re)
	}
}

// TestOverflowingNumbersPrint checks that literals beyond float64 range
// parse, and that an infinite literal prints as one that lexes back to
// Infinity.
func TestOverflowingNumbersPrint(t *testing.T) {
	prog := parse(t, "x = 1e999; y = 0xFFFFFFFFFFFFFFFFFF; z = (1e999).toString();")
	out := ast.Print(prog)
	for _, want := range []string{"(x = 1e999);", "(y = 4.722366482869645e+21);", "(z = (1e999).toString());"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
	if out2 := ast.Print(parse(t, out)); out2 != out {
		t.Errorf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", out, out2)
	}
}

func TestInOperatorVsForIn(t *testing.T) {
	prog := parse(t, `if ("a" in obj) f();`)
	cond := prog.Body[0].(*ast.IfStmt).Cond.(*ast.BinaryExpr)
	if cond.Op != "in" {
		t.Errorf("op = %s", cond.Op)
	}
}

func TestKeywordPropertyNames(t *testing.T) {
	parse(t, "o.delete(); o.in; o.new; o.typeof;")
}

func TestClassDesugaring(t *testing.T) {
	// Classes desugar to prototype-based code at parse time: a class
	// declaration becomes `var Name = (function(){…})()`.
	prog := parse(t, "class Foo { constructor(a) { this.a = a; } m() { return this.a; } }")
	vd, ok := prog.Body[0].(*ast.VarDecl)
	if !ok || vd.Decls[0].Name != "Foo" {
		t.Fatalf("class did not desugar to a var declaration: %T", prog.Body[0])
	}
	call, ok := vd.Decls[0].Init.(*ast.CallExpr)
	if !ok {
		t.Fatalf("init is %T, want IIFE", vd.Decls[0].Init)
	}
	iife := call.Callee.(*ast.FuncLit)
	if len(iife.Body.Body) < 3 {
		t.Errorf("IIFE body too small: %d statements", len(iife.Body.Body))
	}
	// Anonymous class expressions parse too.
	parse(t, "var C = class { m() {} };")
	// Class expressions with extends and super.
	parse(t, "class A {}\nclass B extends A { constructor() { super(); } go() { return super.toString(); } }")
	// A class declaration without a name is an error.
	parseErr(t, "class { m() {} }")
}

func TestLocationsAttached(t *testing.T) {
	prog := parse(t, "var o = {};\nvar f = function() {};")
	objLoc := prog.Body[0].(*ast.VarDecl).Decls[0].Init.Pos()
	if objLoc.Line != 1 || objLoc.Col != 9 {
		t.Errorf("object lit at %v", objLoc)
	}
	fnLoc := prog.Body[1].(*ast.VarDecl).Decls[0].Init.Pos()
	if fnLoc.Line != 2 || fnLoc.Col != 9 {
		t.Errorf("func lit at %v", fnLoc)
	}
	if objLoc.File != "test.js" {
		t.Errorf("file = %q", objLoc.File)
	}
}

func TestMotivatingExampleParses(t *testing.T) {
	// The paper's Fig. 1 code (lightly adapted to the subset).
	parse(t, `
var mixin = require('merge-descriptors');
var proto = require('./application');
exports = module.exports = createApplication;
function createApplication() {
  var app = function(req, res, next) {
    app.handle(req, res, next);
  };
  mixin(app, EventEmitter.prototype, false);
  mixin(app, proto, false);
  return app;
}
`)
	parse(t, `
module.exports = merge;
function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
`)
	parse(t, `
var methods = require('methods');
var app = exports = module.exports = {};
methods.forEach(function(method) {
  app[method] = function(path) {
    var route = this._router.route(path);
    route[method].apply(route, slice.call(arguments, 1));
    return this;
  };
});
app.listen = function listen() {
  var server = http.createServer(this);
  return server.listen.apply(server, arguments);
};
`)
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		"var a = 1 + 2 * 3;",
		"function f(a, b) { if (a) { return b; } return a; }",
		"var o = {x: 1, m(v) { return v; }, get g() { return 2; }};",
		"for (var i = 0; i < 10; i++) { s += i; }",
		"for (var k in o) { f(k); }",
		"var f = (a, b) => a + b;",
		"obj[key] = value;",
		"try { f(); } catch (e) { g(); } finally { h(); }",
		"switch (x) { case 1: a(); break; default: b(); }",
		"var t = `a${x}b`;",
		"f(...args);",
		"while (a) { do { b(); } while (c); }",
		"x = a ? b : c;",
		"throw new Error(\"x\");",
	}
	for _, src := range srcs {
		p1 := parse(t, src)
		out1 := ast.Print(p1)
		p2, err := Parse("test.js", out1)
		if err != nil {
			t.Errorf("reparse of printed output failed: %v\noriginal: %s\nprinted:\n%s", err, src, out1)
			continue
		}
		out2 := ast.Print(p2)
		if out1 != out2 {
			t.Errorf("print not stable for %q:\nfirst:\n%s\nsecond:\n%s", src, out1, out2)
		}
	}
}

func TestWalkCollectors(t *testing.T) {
	prog := parse(t, `
function outer() {
  var inner = function() { leaf(); };
  inner();
}
outer();
var o = new Thing();
`)
	fns := ast.Functions(prog)
	if len(fns) != 2 {
		t.Errorf("functions = %d, want 2", len(fns))
	}
	if calls := countNodes[*ast.CallExpr](prog); calls != 3 {
		t.Errorf("call sites = %d, want 3", calls)
	}
	if news := countNodes[*ast.NewExpr](prog); news != 1 {
		t.Errorf("new sites = %d, want 1", news)
	}
}
