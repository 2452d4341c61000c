package interp

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/value"
)

// run evaluates src as a program and returns the value of the variable
// named "result" afterwards.
func run(t *testing.T, src string) value.Value {
	t.Helper()
	it := New(Options{})
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	scope := value.NewScope(it.GlobalScope())
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	v, ok := scope.Get("result")
	if !ok {
		v, ok = it.GlobalScope().Get("result")
		if !ok {
			t.Fatalf("no `result` variable set by:\n%s", src)
		}
	}
	return v
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	it := New(Options{})
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{})
	if err == nil {
		t.Fatalf("expected runtime error for:\n%s", src)
	}
	return err
}

func wantNumber(t *testing.T, v value.Value, want float64) {
	t.Helper()
	n, ok := v.(value.Number)
	if !ok {
		t.Fatalf("got %T (%v), want number %v", v, value.ToString(v), want)
	}
	if float64(n) != want {
		t.Errorf("got %v, want %v", float64(n), want)
	}
}

func wantString(t *testing.T, v value.Value, want string) {
	t.Helper()
	s, ok := v.(value.String)
	if !ok {
		t.Fatalf("got %T (%v), want string %q", v, value.ToString(v), want)
	}
	if string(s) != want {
		t.Errorf("got %q, want %q", string(s), want)
	}
}

func wantBool(t *testing.T, v value.Value, want bool) {
	t.Helper()
	b, ok := v.(value.Bool)
	if !ok {
		t.Fatalf("got %T, want bool", v)
	}
	if bool(b) != want {
		t.Errorf("got %v, want %v", bool(b), want)
	}
}

func TestArithmetic(t *testing.T) {
	wantNumber(t, run(t, "var result = 1 + 2 * 3 - 4 / 2;"), 5)
	wantNumber(t, run(t, "var result = 7 % 3;"), 1)
	wantNumber(t, run(t, "var result = 2 ** 10;"), 1024)
	wantNumber(t, run(t, "var result = (1 + 2) * 3;"), 9)
	wantNumber(t, run(t, "var result = -5 + +3;"), -2)
}

func TestStringOps(t *testing.T) {
	wantString(t, run(t, `var result = "foo" + "bar";`), "foobar")
	wantString(t, run(t, `var result = "n=" + 42;`), "n=42")
	wantString(t, run(t, "var x = 2; var result = `val ${x + 1}!`;"), "val 3!")
	wantNumber(t, run(t, `var result = "hello".length;`), 5)
	wantString(t, run(t, `var result = "Hello".toUpperCase();`), "HELLO")
	wantString(t, run(t, `var result = "a,b,c".split(",")[1];`), "b")
	wantString(t, run(t, `var result = "  x  ".trim();`), "x")
	wantString(t, run(t, `var result = "abcdef".slice(1, 3);`), "bc")
	wantString(t, run(t, `var result = "abcdef".slice(-2);`), "ef")
	wantBool(t, run(t, `var result = "express".startsWith("ex");`), true)
	wantString(t, run(t, `var result = "a-b-c".replace("-", "+");`), "a+b-c")
	wantString(t, run(t, `var result = "a-b-c".replace(/-/g, "+");`), "a+b+c")
}

func TestComparisonsAndEquality(t *testing.T) {
	wantBool(t, run(t, "var result = 1 < 2;"), true)
	wantBool(t, run(t, `var result = "a" < "b";`), true)
	wantBool(t, run(t, `var result = 1 == "1";`), true)
	wantBool(t, run(t, `var result = 1 === "1";`), false)
	wantBool(t, run(t, "var result = null == undefined;"), true)
	wantBool(t, run(t, "var result = null === undefined;"), false)
	wantBool(t, run(t, "var result = NaN === NaN;"), false)
	wantBool(t, run(t, "var x = {}; var y = {}; var result = x === y;"), false)
	wantBool(t, run(t, "var x = {}; var y = x; var result = x === y;"), true)
}

func TestVariablesAndScope(t *testing.T) {
	wantNumber(t, run(t, "var a = 1; { let a = 2; } var result = a;"), 1)
	wantNumber(t, run(t, "var a = 1; function f() { a = 5; } f(); var result = a;"), 5)
	wantNumber(t, run(t, `
var counter = (function() {
  var n = 0;
  return function() { n++; return n; };
})();
counter(); counter();
var result = counter();`), 3)
}

func TestHoisting(t *testing.T) {
	// Function used before its declaration (the paper's Fig. 1b pattern).
	wantNumber(t, run(t, "var x = f(); function f() { return 7; } var result = x;"), 7)
	// var hoisting.
	wantString(t, run(t, "var result = typeof y; var y = 1;"), "undefined")
}

func TestObjectsAndProperties(t *testing.T) {
	wantNumber(t, run(t, "var o = {a: 1, b: {c: 2}}; var result = o.a + o.b.c;"), 3)
	wantNumber(t, run(t, `var o = {}; o.x = 10; var result = o["x"];`), 10)
	wantNumber(t, run(t, `var o = {}; var k = "dyn"; o[k] = 4; var result = o.dyn;`), 4)
	wantString(t, run(t, `var o = {["computed" + 1]: "v"}; var result = o.computed1;`), "v")
	wantNumber(t, run(t, "var x = 5; var o = {x}; var result = o.x;"), 5)
	wantBool(t, run(t, `var o = {a: 1}; var result = "a" in o;`), true)
	wantBool(t, run(t, `var o = {a: 1}; delete o.a; var result = "a" in o;`), false)
	wantString(t, run(t, "var o = {m() { return 'method'; }}; var result = o.m();"), "method")
}

func TestGettersSetters(t *testing.T) {
	wantNumber(t, run(t, `
var backing = 0;
var o = {
  get x() { return backing + 1; },
  set x(v) { backing = v * 2; }
};
o.x = 5;
var result = o.x;`), 11)
}

func TestArrays(t *testing.T) {
	wantNumber(t, run(t, "var a = [1, 2, 3]; var result = a.length;"), 3)
	wantNumber(t, run(t, "var a = [1, 2, 3]; var result = a[1];"), 2)
	wantNumber(t, run(t, "var a = []; a.push(9); var result = a[0];"), 9)
	wantNumber(t, run(t, "var a = [1, 2]; var result = a.pop() + a.length;"), 3)
	wantString(t, run(t, `var result = ["a", "b"].join("-");`), "a-b")
	wantNumber(t, run(t, "var a = [1, 2, 3].map(function(x) { return x * 2; }); var result = a[2];"), 6)
	wantNumber(t, run(t, "var result = [1, 2, 3, 4].filter(function(x) { return x % 2 === 0; }).length;"), 2)
	wantNumber(t, run(t, "var result = [1, 2, 3].reduce(function(a, b) { return a + b; }, 10);"), 16)
	wantNumber(t, run(t, "var result = [3, 1, 2].sort()[0];"), 1)
	wantNumber(t, run(t, "var result = [1, 2, 3].indexOf(2);"), 1)
	wantBool(t, run(t, "var result = [1, 2].includes(2);"), true)
	wantNumber(t, run(t, "var s = 0; [5, 6].forEach(function(x) { s += x; }); var result = s;"), 11)
	wantNumber(t, run(t, "var a = [1, 2, 3, 4].slice(1, 3); var result = a[0] + a.length;"), 4)
	wantNumber(t, run(t, "var a = [1, [2, 3]].flat(); var result = a.length;"), 3)
	wantNumber(t, run(t, "var a = [1, 2]; var b = [0, ...a, 3]; var result = b.length;"), 4)
}

func TestFunctionsAndClosures(t *testing.T) {
	wantNumber(t, run(t, "function add(a, b) { return a + b; } var result = add(2, 3);"), 5)
	wantNumber(t, run(t, "var f = function(x) { return x + 1; }; var result = f(1);"), 2)
	wantNumber(t, run(t, "var f = x => x * 3; var result = f(2);"), 6)
	wantNumber(t, run(t, "var f = (a, b) => { return a - b; }; var result = f(5, 2);"), 3)
	wantNumber(t, run(t, `
function adder(n) { return function(x) { return x + n; }; }
var add5 = adder(5);
var result = add5(10);`), 15)
	// Named function expression self-reference.
	wantNumber(t, run(t, `
var fac = function f(n) { return n <= 1 ? 1 : n * f(n - 1); };
var result = fac(5);`), 120)
	// Rest parameters and arguments.
	wantNumber(t, run(t, "function f(...xs) { return xs.length; } var result = f(1, 2, 3);"), 3)
	wantNumber(t, run(t, "function f() { return arguments.length; } var result = f(1, 2);"), 2)
	wantNumber(t, run(t, "function f(a) { return arguments[1]; } var result = f(1, 9);"), 9)
}

func TestThisBinding(t *testing.T) {
	wantNumber(t, run(t, "var o = {n: 3, get2() { return this.n; }}; var result = o.get2();"), 3)
	// apply/call/bind
	wantNumber(t, run(t, "function f(a) { return this.n + a; } var result = f.call({n: 1}, 2);"), 3)
	wantNumber(t, run(t, "function f(a, b) { return this.n + a + b; } var result = f.apply({n: 1}, [2, 3]);"), 6)
	wantNumber(t, run(t, "function f(a) { return this.n * a; } var g = f.bind({n: 4}, 5); var result = g();"), 20)
	// Arrow captures lexical this.
	wantNumber(t, run(t, `
var o = {
  n: 7,
  run: function() {
    var f = () => this.n;
    return f();
  }
};
var result = o.run();`), 7)
}

func TestNewAndPrototypes(t *testing.T) {
	wantNumber(t, run(t, `
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function() { return this.x + this.y; };
var p = new Point(3, 4);
var result = p.norm1();`), 7)
	wantBool(t, run(t, `
function A() {}
var a = new A();
var result = a instanceof A;`), true)
	wantBool(t, run(t, `
function A() {}
function B() {}
var result = (new A()) instanceof B;`), false)
	// Constructor returning an explicit object.
	wantNumber(t, run(t, `
function F() { return {v: 42}; }
var result = (new F()).v;`), 42)
	// Prototype chain through Object.create.
	wantNumber(t, run(t, `
var base = {m: function() { return 5; }};
var child = Object.create(base);
var result = child.m();`), 5)
}

func TestControlFlowSemantics(t *testing.T) {
	wantNumber(t, run(t, "var s = 0; for (var i = 0; i < 5; i++) { s += i; } var result = s;"), 10)
	wantNumber(t, run(t, "var s = 0; var i = 0; while (i < 4) { s += 2; i++; } var result = s;"), 8)
	wantNumber(t, run(t, "var n = 0; do { n++; } while (n < 3); var result = n;"), 3)
	wantNumber(t, run(t, `
var s = 0;
for (var i = 0; i < 10; i++) {
  if (i === 3) continue;
  if (i === 6) break;
  s += i;
}
var result = s;`), 12)
	wantString(t, run(t, `
var keys = "";
var o = {a: 1, b: 2};
for (var k in o) { keys += k; }
var result = keys;`), "ab")
	wantNumber(t, run(t, `
var s = 0;
for (var v of [1, 2, 3]) { s += v; }
var result = s;`), 6)
	wantString(t, run(t, `
var r = "";
switch (2) {
  case 1: r += "one"; break;
  case 2: r += "two";
  case 3: r += "three"; break;
  default: r += "none";
}
var result = r;`), "twothree")
}

func TestForInInheritedProperties(t *testing.T) {
	wantString(t, run(t, `
var base = {p: 1};
var o = Object.create(base);
o.q = 2;
var keys = "";
for (var k in o) keys += k;
var result = keys;`), "qp")
}

func TestExceptions(t *testing.T) {
	wantString(t, run(t, `
var result = "";
try {
  throw new Error("boom");
} catch (e) {
  result = e.message;
}`), "boom")
	wantString(t, run(t, `
var result = "";
try {
  result += "a";
} finally {
  result += "b";
}`), "ab")
	wantString(t, run(t, `
var result = "";
function f() {
  try {
    throw new TypeError("t");
  } finally {
    result += "fin";
  }
}
try { f(); } catch (e) { result += e.name; }`), "finTypeError")
	err := runErr(t, `throw new Error("uncaught");`)
	if !strings.Contains(err.Error(), "uncaught") {
		t.Errorf("error = %v", err)
	}
	// TypeError on property access of undefined (strict concrete mode).
	err = runErr(t, "var x; x.foo;")
	if !strings.Contains(err.Error(), "TypeError") && !strings.Contains(err.Error(), "properties") {
		t.Errorf("error = %v", err)
	}
}

func TestTypeofAndTruthiness(t *testing.T) {
	wantString(t, run(t, "var result = typeof 1;"), "number")
	wantString(t, run(t, `var result = typeof "s";`), "string")
	wantString(t, run(t, "var result = typeof {};"), "object")
	wantString(t, run(t, "var result = typeof function() {};"), "function")
	wantString(t, run(t, "var result = typeof undeclared_name;"), "undefined")
	wantString(t, run(t, "var result = typeof null;"), "object")
	wantBool(t, run(t, `var result = !!"";`), false)
	wantBool(t, run(t, "var result = !!0;"), false)
	wantBool(t, run(t, "var result = !![];"), true)
	wantString(t, run(t, `var result = (null ?? "fallback");`), "fallback")
	wantNumber(t, run(t, "var result = (0 || 5);"), 5)
	wantNumber(t, run(t, "var result = (0 ?? 5);"), 0)
}

func TestObjectBuiltins(t *testing.T) {
	wantString(t, run(t, `var result = Object.keys({a: 1, b: 2}).join(",");`), "a,b")
	wantNumber(t, run(t, "var result = Object.values({a: 1, b: 2})[1];"), 2)
	wantString(t, run(t, `var result = Object.getOwnPropertyNames({x: 1}).join("");`), "x")
	wantNumber(t, run(t, `
var o = {};
Object.defineProperty(o, "p", {value: 13, enumerable: false});
var result = o.p;`), 13)
	wantString(t, run(t, `
var o = {};
Object.defineProperty(o, "hidden", {value: 1, enumerable: false});
o.shown = 2;
var result = Object.keys(o).join(",");`), "shown")
	wantNumber(t, run(t, `
var dst = {};
Object.assign(dst, {a: 1}, {b: 2});
var result = dst.a + dst.b;`), 3)
	wantBool(t, run(t, `var result = {a: 1}.hasOwnProperty("a");`), true)
	wantBool(t, run(t, `var result = Object.create({a: 1}).hasOwnProperty("a");`), false)
	// Descriptor round-trip: getOwnPropertyDescriptor → defineProperty
	// (the merge-descriptors pattern from the paper's Fig. 1c).
	wantNumber(t, run(t, `
var src = {v: 21};
var dst = {};
var d = Object.getOwnPropertyDescriptor(src, "v");
Object.defineProperty(dst, "v", d);
var result = dst.v * 2;`), 42)
}

func TestMergeDescriptorsPattern(t *testing.T) {
	// The full mixin from the paper's motivating example (Fig. 1c).
	wantString(t, run(t, `
function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
var app = function() { return "app"; };
var proto = {};
proto.get = function() { return "get-called"; };
proto.listen = function() { return "listen-called"; };
merge(app, proto, false);
var result = app.get() + "/" + app.listen();`), "get-called/listen-called")
}

func TestMethodTablePattern(t *testing.T) {
	// The dynamic method-table initialization from Fig. 1d.
	wantString(t, run(t, `
var methods = ["get", "post", "put"];
var app = {};
methods.forEach(function(method) {
  app[method] = function(path) {
    return method + ":" + path;
  };
});
var result = app.get("/") + " " + app.post("/x");`), "get:/ post:/x")
}

func TestEval(t *testing.T) {
	wantNumber(t, run(t, `var result = eval("1 + 2");`), 3)
	wantNumber(t, run(t, `
eval("function evalDefined() { return 9; }");
var result = evalDefined();`), 9)
	wantNumber(t, run(t, `
var f = new Function("a", "b", "return a * b;");
var result = f(6, 7);`), 42)
}

func TestRegex(t *testing.T) {
	wantBool(t, run(t, `var result = /ab+c/.test("xabbcy");`), true)
	wantBool(t, run(t, `var result = /^q/.test("xq");`), false)
	wantString(t, run(t, `var m = "a1b2".match(/\d/g); var result = m.join("");`), "12")
	wantBool(t, run(t, `var result = new RegExp("^ab", "i").test("ABx");`), true)
}

func TestJSONBuiltin(t *testing.T) {
	wantString(t, run(t, `var result = JSON.stringify({a: 1, b: [true, null]});`), `{"a":1,"b":[true,null]}`)
	wantNumber(t, run(t, `var o = JSON.parse('{"x": [1, 2, 3]}'); var result = o.x[2];`), 3)
	wantString(t, run(t, `var result = JSON.stringify("he\"y");`), `"he\"y"`)
}

func TestMathBuiltins(t *testing.T) {
	wantNumber(t, run(t, "var result = Math.floor(3.7);"), 3)
	wantNumber(t, run(t, "var result = Math.max(1, 5, 3);"), 5)
	wantNumber(t, run(t, "var result = Math.abs(-4);"), 4)
	wantNumber(t, run(t, "var result = Math.pow(2, 8);"), 256)
	// Deterministic Math.random: two interpreters agree.
	v1 := run(t, "var result = Math.random();")
	v2 := run(t, "var result = Math.random();")
	if !value.StrictEquals(v1, v2) {
		t.Errorf("Math.random not deterministic across fresh interpreters: %v vs %v", v1, v2)
	}
}

func TestParseIntFloat(t *testing.T) {
	wantNumber(t, run(t, `var result = parseInt("42px");`), 42)
	wantNumber(t, run(t, `var result = parseInt("ff", 16);`), 255)
	wantNumber(t, run(t, `var result = parseInt("0x10");`), 16)
	wantNumber(t, run(t, `var result = parseFloat("3.5rem");`), 3.5)
	wantBool(t, run(t, `var result = isNaN(parseInt("no"));`), true)
}

func TestUpdateExpressions(t *testing.T) {
	wantNumber(t, run(t, "var i = 1; var result = i++ + i;"), 3)
	wantNumber(t, run(t, "var i = 1; var result = ++i + i;"), 4)
	wantNumber(t, run(t, "var o = {n: 1}; o.n++; var result = o.n;"), 2)
	wantNumber(t, run(t, "var a = [5]; a[0]--; var result = a[0];"), 4)
}

func TestCompoundAssignment(t *testing.T) {
	wantNumber(t, run(t, "var x = 10; x += 5; x -= 3; x *= 2; var result = x;"), 24)
	wantString(t, run(t, `var s = "a"; s += "b"; var result = s;`), "ab")
	wantNumber(t, run(t, "var o = {n: 2}; o.n *= 3; var result = o.n;"), 6)
	wantNumber(t, run(t, `var o = {}; var k = "v"; o[k] = 1; o[k] += 9; var result = o[k];`), 10)
}

func TestBitwiseOps(t *testing.T) {
	wantNumber(t, run(t, "var result = 5 & 3;"), 1)
	wantNumber(t, run(t, "var result = 5 | 3;"), 7)
	wantNumber(t, run(t, "var result = 5 ^ 3;"), 6)
	wantNumber(t, run(t, "var result = 1 << 4;"), 16)
	wantNumber(t, run(t, "var result = 16 >> 2;"), 4)
	wantNumber(t, run(t, "var result = ~0;"), -1)
}

func TestBudgetLimits(t *testing.T) {
	it := New(Options{MaxLoopIters: 100})
	prog, err := parser.Parse("test.js", "while (true) {}")
	if err != nil {
		t.Fatal(err)
	}
	_, err = it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{})
	var be *BudgetError
	if err == nil {
		t.Fatal("expected budget error")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error = %v", err)
	}
	_ = be

	// Budget errors are not catchable by JS try/catch.
	it2 := New(Options{MaxLoopIters: 100})
	prog2, _ := parser.Parse("test.js", "try { while (true) {} } catch (e) { uncaught = false; }")
	_, err = it2.RunProgram(prog2, value.NewScope(it2.GlobalScope()), value.Undefined{})
	if err == nil {
		t.Error("budget error must not be catchable")
	}

	// Stack-depth budget.
	it3 := New(Options{MaxDepth: 50})
	prog3, _ := parser.Parse("test.js", "function f() { return f(); } f();")
	_, err = it3.RunProgram(prog3, value.NewScope(it3.GlobalScope()), value.Undefined{})
	if err == nil {
		t.Error("expected stack budget error")
	}
}

func TestProxyModeSemantics(t *testing.T) {
	it := New(Options{Approximate: true, MaxLoopIters: 10000})
	p := it.Proxy()
	if p == nil {
		t.Fatal("no proxy value in proxy mode")
	}
	prog, err := parser.Parse("test.js", `
// Operations on p*: reads yield p*, writes are ignored, calls are no-ops.
var viaRead = mystery.someProp;
var viaCall = mystery(1, 2);
mystery.x = 42;
var afterWrite = mystery.x;
var inBranch = "no";
if (mystery) { inBranch = "yes"; }
var loopRan = "no";
for (var i = 0; i < mystery.length; i++) { loopRan = "yes"; }
`)
	if err != nil {
		t.Fatal(err)
	}
	scope := value.NewScope(it.GlobalScope())
	scope.Declare("mystery", p)
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	get := func(name string) value.Value {
		v, _ := scope.Get(name)
		return v
	}
	if get("viaRead") != value.Value(p) {
		t.Error("property read on p* should yield p*")
	}
	if get("viaCall") != value.Value(p) {
		t.Error("call on p* should yield p*")
	}
	if get("afterWrite") != value.Value(p) {
		t.Error("write to p* should be ignored; read still yields p*")
	}
	wantString(t, get("inBranch"), "yes") // p* is truthy
	wantString(t, get("loopRan"), "no")   // NaN comparison: loop not taken
}

func TestLenientMode(t *testing.T) {
	it := New(Options{Approximate: true})
	prog, err := parser.Parse("test.js", `
var a = totallyUndefinedVariable;
var b = undefined_thing_2.prop.deeper;
var c = (5)(1, 2);
var ok = "reached-end";
`)
	if err != nil {
		t.Fatal(err)
	}
	scope := value.NewScope(it.GlobalScope())
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatalf("lenient mode should not fail: %v", err)
	}
	v, _ := scope.Get("ok")
	wantString(t, v, "reached-end")
}

func TestTimersRunSynchronously(t *testing.T) {
	wantNumber(t, run(t, `
var n = 0;
setTimeout(function() { n = 5; }, 1000);
var result = n;`), 5)
}

func TestUtilInheritsPattern(t *testing.T) {
	// The classic prototype-inheritance pattern used by the node stdlib.
	wantString(t, run(t, `
function Animal(name) { this.name = name; }
Animal.prototype.speak = function() { return this.name + " speaks"; };
function Dog(name) { Animal.call(this, name); }
Dog.prototype = Object.create(Animal.prototype, {
  constructor: { value: Dog, enumerable: false, writable: true }
});
Dog.prototype.bark = function() { return this.name + " barks"; };
var d = new Dog("rex");
var result = d.speak() + "/" + d.bark();`), "rex speaks/rex barks")
}

func TestConsoleOutput(t *testing.T) {
	var sb strings.Builder
	it := New(Options{Stdout: &sb})
	prog, err := parser.Parse("test.js", `console.log("hello", 42, [1, 2], {a: 1});`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.RunProgram(prog, value.NewScope(it.GlobalScope()), value.Undefined{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "hello 42") || !strings.Contains(out, "[ 1, 2 ]") {
		t.Errorf("console output = %q", out)
	}
}

func TestSequenceAndConditional(t *testing.T) {
	wantNumber(t, run(t, "var result = (1, 2, 3);"), 3)
	wantString(t, run(t, `var result = 5 > 3 ? "yes" : "no";`), "yes")
}

func TestDeleteAndVoid(t *testing.T) {
	wantString(t, run(t, "var result = typeof void 0;"), "undefined")
	wantBool(t, run(t, "var a = [1, 2]; delete a[0]; var result = a[0] === undefined;"), true)
}

func TestInstanceofThroughChain(t *testing.T) {
	wantBool(t, run(t, `
function A() {}
function B() {}
B.prototype = Object.create(A.prototype);
var b = new B();
var result = b instanceof A;`), true)
}

func TestErrorHierarchy(t *testing.T) {
	wantBool(t, run(t, "var result = new TypeError('x') instanceof Error;"), true)
	wantString(t, run(t, "var e = new RangeError('oops'); var result = e.name + ':' + e.message;"), "RangeError:oops")
}

func TestStringNumberMethodsOnPrimitives(t *testing.T) {
	wantString(t, run(t, "var result = (255).toString(16);"), "ff")
	wantString(t, run(t, "var result = (3.14159).toFixed(2);"), "3.14")
	wantString(t, run(t, "var result = 'x'.concat('y', 'z');"), "xyz")
	wantNumber(t, run(t, "var result = 'hello'.charCodeAt(0);"), 104)
	wantString(t, run(t, "var result = String.fromCharCode(104, 105);"), "hi")
}
