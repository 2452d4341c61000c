package interp

import (
	"strings"
	"testing"

	"repro/internal/loc"
	"repro/internal/parser"
	"repro/internal/value"
)

// Edge-case and failure-injection tests complementing interp_test.go.

func TestStringEdgeCases(t *testing.T) {
	wantString(t, run(t, `var result = "abc".charAt(99);`), "")
	wantBool(t, run(t, `var result = isNaN("abc".charCodeAt(99));`), true)
	wantString(t, run(t, `var result = "".toUpperCase();`), "")
	wantString(t, run(t, `var result = "a".repeat(0);`), "")
	wantNumber(t, run(t, `var result = "abc".indexOf("zzz");`), -1)
	wantString(t, run(t, `var result = "a,b".split(",").concat(["c"]).join("");`), "abc")
	wantString(t, run(t, `var result = "abc".substring(2, 0);`), "ab") // swapped args
	wantString(t, run(t, `var result = "hello".substr(1, 3);`), "ell")
	wantString(t, run(t, `var result = "hello".substr(-2);`), "lo")
	wantString(t, run(t, `var result = "x".padStart(3, "0");`), "00x")
	wantString(t, run(t, `var result = "x".padEnd(3, ".");`), "x..")
	wantString(t, run(t, `var result = "aaa".replace("a", "b");`), "baa") // first only
	wantString(t, run(t, `var result = "".split(",")[0];`), "")
	wantNumber(t, run(t, `var result = "abc".split("").length;`), 3)
}

func TestArrayEdgeCases(t *testing.T) {
	wantNumber(t, run(t, "var result = [].length;"), 0)
	wantBool(t, run(t, "var result = [].pop() === undefined;"), true)
	wantBool(t, run(t, "var result = [].shift() === undefined;"), true)
	wantString(t, run(t, "var result = [].join(',');"), "")
	wantNumber(t, run(t, "var result = [1, 2, 3].slice(5).length;"), 0)
	wantNumber(t, run(t, "var result = [1, 2, 3].slice(-2)[0];"), 2)
	wantNumber(t, run(t, "var a = [1, 2, 3, 4]; var r = a.splice(1, 2); var result = r.length * 10 + a.length;"), 22)
	wantNumber(t, run(t, "var a = [1, 2]; a.splice(1, 0, 9, 8); var result = a[1];"), 9)
	wantNumber(t, run(t, "var result = [2, 1].sort(function(a, b) { return b - a; })[0];"), 2)
	wantNumber(t, run(t, "var result = [10, 9, 8].findIndex(function(x) { return x < 10; });"), 1)
	wantBool(t, run(t, "var result = [].every(function() { return false; });"), true)
	wantBool(t, run(t, "var result = [].some(function() { return true; });"), false)
	wantNumber(t, run(t, "var a = new Array(3); var result = a.length;"), 3)
	wantNumber(t, run(t, "var result = Array.from([1, 2], function(x) { return x * 10; })[1];"), 20)
	wantNumber(t, run(t, "var result = Array.of(7, 8)[1];"), 8)
	// Array length assignment.
	wantNumber(t, run(t, "var a = [1, 2, 3]; a.length = 1; var result = a.length;"), 1)
	wantBool(t, run(t, "var a = [1]; a.length = 3; var result = a[2] === undefined;"), true)
	// reduce without initial value on empty array throws.
	err := runErr(t, "[].reduce(function(a, b) { return a + b; });")
	if !strings.Contains(err.Error(), "reduce") {
		t.Errorf("error = %v", err)
	}
}

func TestSliceCallOnArguments(t *testing.T) {
	// The Fig. 1d idiom: slice.call(arguments, 1).
	wantNumber(t, run(t, `
var slice = Array.prototype.slice;
function f() {
  var rest = slice.call(arguments, 1);
  return rest.length * 10 + rest[0];
}
var result = f("skip", 3, 4);`), 23)
}

func TestGetterSetterEdgeCases(t *testing.T) {
	// Getter inherited through the prototype chain.
	wantNumber(t, run(t, `
var base = {get magic() { return 7; }};
var child = Object.create(base);
var result = child.magic;`), 7)
	// Setter through the chain intercepts the write.
	wantNumber(t, run(t, `
var captured = 0;
var base = {set trap(v) { captured = v; }};
var child = Object.create(base);
child.trap = 9;
var result = captured;`), 9)
	// defineProperty with accessors.
	wantNumber(t, run(t, `
var o = {};
Object.defineProperty(o, "x", {get: function() { return 5; }});
var result = o.x;`), 5)
	// Accessor descriptor round-trip via merge (the express pattern with
	// getters).
	wantNumber(t, run(t, `
var src = {get g() { return 11; }};
var dst = {};
var d = Object.getOwnPropertyDescriptor(src, "g");
Object.defineProperty(dst, "g", d);
var result = dst.g;`), 11)
}

func TestThisEdgeCases(t *testing.T) {
	// Detached method call: this is undefined → lenient-free TypeError on
	// property access, but plain reads of globals still work.
	wantString(t, run(t, `
var o = {who: "obj", name: function() { return typeof this; }};
var f = o.name;
var result = f();`), "undefined")
	// Constructor without new returning primitives: this is undefined.
	wantBool(t, run(t, `
function NotCtor() { return typeof this === "undefined"; }
var result = NotCtor();`), true)
	// Nested arrows capture through two levels.
	wantNumber(t, run(t, `
var o = {
  n: 3,
  m: function() {
    var outer = () => {
      var inner = () => this.n;
      return inner();
    };
    return outer();
  }
};
var result = o.m();`), 3)
}

func TestExceptionEdgeCases(t *testing.T) {
	// Throwing non-Error values.
	wantString(t, run(t, `
var result = "";
try { throw "plain string"; } catch (e) { result = e; }`), "plain string")
	wantNumber(t, run(t, `
var result = 0;
try { throw 42; } catch (e) { result = e; }`), 42)
	// Rethrow from catch.
	wantString(t, run(t, `
var result = "";
try {
  try { throw new Error("inner"); } catch (e) { throw new Error("re:" + e.message); }
} catch (e2) { result = e2.message; }`), "re:inner")
	// finally runs on the throwing path.
	wantString(t, run(t, `
var log = "";
function f() {
  try { throw new Error("x"); } finally { log += "F"; }
}
try { f(); } catch (e) { log += "C"; }
var result = log;`), "FC")
	// return inside try still runs finally.
	wantString(t, run(t, `
var log = "";
function f() {
  try { return "ret"; } finally { log += "fin"; }
}
var r = f();
var result = log + ":" + r;`), "fin:ret")
	// finally's control flow overrides try's.
	wantString(t, run(t, `
function f() {
  try { return "fromTry"; } finally { return "fromFinally"; }
}
var result = f();`), "fromFinally")
}

func TestLoopEdgeCases(t *testing.T) {
	wantNumber(t, run(t, "var n = 0; for (;;) { n++; if (n > 4) break; } var result = n;"), 5)
	wantNumber(t, run(t, `
var sum = 0;
for (var i = 0; i < 3; i++) {
  sum += i;
}
var result = sum;`), 3)
	// for-in over an array yields index strings.
	wantString(t, run(t, `
var s = "";
for (var k in ["a", "b"]) { s += typeof k + ":" + k + ";"; }
var result = s;`), "string:0;string:1;")
	// continue in while.
	wantNumber(t, run(t, `
var n = 0, total = 0;
while (n < 5) {
  n++;
  if (n % 2 === 0) continue;
  total += n;
}
var result = total;`), 9)
}

func TestNumericEdgeCases(t *testing.T) {
	wantBool(t, run(t, "var result = 0.1 + 0.2 !== 0.3;"), true) // IEEE
	wantBool(t, run(t, "var result = 1 / 0 === Infinity;"), true)
	wantBool(t, run(t, "var result = -1 / 0 === -Infinity;"), true)
	wantBool(t, run(t, "var result = isNaN(0 / 0);"), true)
	wantString(t, run(t, "var result = typeof NaN;"), "number")
	wantBool(t, run(t, `var result = "5" * "4" === 20;`), true)
	wantString(t, run(t, `var result = "5" + 4;`), "54")
	wantNumber(t, run(t, `var result = "5" - 4;`), 1)
	wantBool(t, run(t, "var result = 0 === -0;"), true)
}

func TestHoistingEdgeCases(t *testing.T) {
	// Function declarations hoist out of blocks (annex-B style).
	wantNumber(t, run(t, `
var result = fromBlock();
if (true) {
  function fromBlock() { return 3; }
}`), 3)
	// var in a loop body hoists to function scope.
	wantNumber(t, run(t, `
function f() {
  for (var i = 0; i < 3; i++) { var last = i; }
  return last;
}
var result = f();`), 2)
	// `var x;` without initializer does not clobber a hoisted function of
	// the same name; with an initializer the assignment wins.
	wantString(t, run(t, `
var dual;
function dual() {}
var result = typeof dual;`), "function")
	wantString(t, run(t, `
var dual2 = 1;
function dual2() {}
var result = typeof dual2;`), "number")
}

func TestClosureEdgeCases(t *testing.T) {
	// Shared mutable closure state between two closures.
	wantNumber(t, run(t, `
function makePair() {
  var n = 0;
  return {
    inc: function() { n++; return n; },
    get: function() { return n; }
  };
}
var p = makePair();
p.inc(); p.inc();
var result = p.get();`), 2)
	// Classic var-in-loop capture (all closures share one binding).
	wantNumber(t, run(t, `
var fns = [];
for (var i = 0; i < 3; i++) {
  fns.push(function() { return i; });
}
var result = fns[0]();`), 3)
}

func TestEvalEdgeCases(t *testing.T) {
	// eval of a non-string returns it unchanged.
	wantNumber(t, run(t, "var result = eval(42);"), 42)
	// Syntax errors in eval are catchable SyntaxErrors.
	wantString(t, run(t, `
var result = "";
try { eval("var ="); } catch (e) { result = e.name; }`), "SyntaxError")
	// Direct eval reads the caller's scope.
	wantNumber(t, run(t, `
function f() {
  var localVal = 9;
  return eval("localVal + 1");
}
var result = f();`), 10)
}

func TestProxyDeepBehaviors(t *testing.T) {
	it := New(Options{Approximate: true, MaxLoopIters: 1000})
	p := it.Proxy()
	prog, err := parser.Parse("test.js", `
// Arithmetic with p*: NaN-ish, but never crashes.
var sum = mystery + 1;
var cmp = mystery < 5;
var str = "v=" + mystery;
var t = typeof mystery;
// instanceof/in with proxy operands.
var isInst = ({}) instanceof Object && !(mystery instanceof Object);
var hasIn = "x" in mystery;
// for-of over p*: no iterations.
var ofRan = false;
for (var v of mystery) { ofRan = true; }
// delete on p* is a no-op that succeeds.
var del = delete mystery.prop;
// Constructing p*.
var inst = new mystery(1, 2);
`)
	if err != nil {
		t.Fatal(err)
	}
	scope := value.NewScope(it.GlobalScope())
	scope.Declare("mystery", p)
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatalf("proxy semantics crashed: %v", err)
	}
	get := func(name string) value.Value { v, _ := scope.Get(name); return v }
	wantString(t, get("t"), "object")
	wantBool(t, get("cmp"), false)
	wantBool(t, get("hasIn"), false)
	wantBool(t, get("ofRan"), false)
	wantBool(t, get("del"), true)
	if get("inst") != value.Value(p) {
		t.Error("new p*() should yield p*")
	}
}

func TestForceCallBindsEverything(t *testing.T) {
	it := New(Options{Approximate: true, MaxLoopIters: 1000})
	prog, err := parser.Parse("test.js", `
var observed = null;
function target(a, b) {
  observed = {
    aIsProxy: a, bIsProxy: b,
    argsIsProxy: arguments,
    thisType: typeof this
  };
}
`)
	if err != nil {
		t.Fatal(err)
	}
	scope := value.NewScope(it.GlobalScope())
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatal(err)
	}
	fnV, _ := scope.Get("target")
	fn := fnV.(*value.Object)
	if _, err := it.ForceCall(fn, nil); err != nil {
		t.Fatal(err)
	}
	obsV, _ := scope.Get("observed")
	obs := obsV.(*value.Object)
	p := it.Proxy()
	for _, key := range []string{"aIsProxy", "bIsProxy", "argsIsProxy"} {
		got := obs.GetOwn(key)
		if got == nil || got.Value != value.Value(p) {
			t.Errorf("%s: forced binding is not p*", key)
		}
	}
}

func TestRegexEdgeCases(t *testing.T) {
	wantBool(t, run(t, `var result = /^$/.test("");`), true)
	wantString(t, run(t, `var m = /(\d+)-(\d+)/.exec("a 12-34 b"); var result = m[1] + "/" + m[2];`), "12/34")
	wantBool(t, run(t, `var result = /abc/.exec("xyz") === null;`), true)
	wantBool(t, run(t, `var result = new RegExp(/src/).test("a src b");`), true)
	wantString(t, run(t, `var result = ("" + /a\/b/g);`), "/a\\/b/g")
}

func TestJSONEdgeCases(t *testing.T) {
	wantString(t, run(t, `var result = JSON.stringify([undefined, function() {}]);`), "[null,null]")
	wantBool(t, run(t, `var result = JSON.stringify(undefined) === undefined;`), true)
	wantString(t, run(t, `var o = {f: function() {}, x: 1}; var result = JSON.stringify(o);`), `{"x":1}`)
	// Cycles degrade to null rather than hanging.
	wantString(t, run(t, `
var o = {a: 1};
o.self = o;
var result = JSON.stringify(o);`), `{"a":1,"self":null}`)
	wantString(t, run(t, `var result = "";
try { JSON.parse("{bad"); } catch (e) { result = e.name; }`), "SyntaxError")
	wantNumber(t, run(t, `var result = JSON.parse("[1,2,3]").length;`), 3)
}

func TestSwitchFallthroughAndDefaultPosition(t *testing.T) {
	// default in the middle: matched only after all cases fail, and
	// execution falls through from it.
	wantString(t, run(t, `
function f(x) {
  var r = "";
  switch (x) {
    case 1: r += "one"; break;
    default: r += "def";
    case 2: r += "two"; break;
  }
  return r;
}
var result = f(99) + "|" + f(2) + "|" + f(1);`), "deftwo|two|one")
}

func TestLogicalShortCircuitEffects(t *testing.T) {
	wantNumber(t, run(t, `
var calls = 0;
function bump() { calls++; return true; }
var a = false && bump();
var b = true || bump();
var result = calls;`), 0)
}

func TestDeepRecursionWithinBudget(t *testing.T) {
	wantNumber(t, run(t, `
function down(n) { return n === 0 ? 0 : down(n - 1); }
var result = down(500);`), 0)
}

func TestUtilFormatViaGlobalScope(t *testing.T) {
	// Number formatting round-trip through string ops.
	wantString(t, run(t, `var result = (1234.5).toString() + "|" + (0.5).toString();`), "1234.5|0.5")
}

func TestHookLocSuppression(t *testing.T) {
	if !isEvalLoc(loc.Loc{File: "/app/x.js#eval1", Line: 1, Col: 1}) {
		t.Error("eval loc not detected")
	}
	if isEvalLoc(loc.Loc{File: "/app/x.js", Line: 1, Col: 1}) {
		t.Error("ordinary loc misdetected")
	}
}

func TestBoundFunctions(t *testing.T) {
	wantNumber(t, run(t, `
function add(a, b, c) { return a + b + c; }
var add12 = add.bind(null, 1, 2);
var result = add12(30);`), 33)
	wantString(t, run(t, `
var o = {tag: "T", get: function() { return this.tag; }};
var bound = o.get.bind(o);
var other = {tag: "other"};
other.steal = bound;
var result = other.steal();`), "T")
}

func TestGlobalAssignmentCreatesBinding(t *testing.T) {
	wantNumber(t, run(t, `
function f() { implicitGlobal = 8; }
f();
var result = implicitGlobal;`), 8)
}
