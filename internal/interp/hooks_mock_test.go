package interp

import (
	"testing"

	"repro/internal/loc"
	"repro/internal/parser"
	"repro/internal/value"
)

// TestNopHooks exercises the no-op observation sink directly.
func TestNopHooks(t *testing.T) {
	var h Hooks = NopHooks{}
	obj := value.NewObject(nil)
	l := loc.Loc{File: "x.js", Line: 1, Col: 1}
	h.ObjectCreated(obj, l)
	h.FunctionDefined(obj, l)
	h.BeforeCall(l, obj, value.Undefined{}, nil)
	h.DynamicRead(l, obj, "k", value.Undefined{})
	h.DynamicWrite(l, obj, "k", value.Undefined{})
	h.StaticWrite(obj, "k", value.Undefined{})
	h.EvalCode("m.js", "1;")
	h.RequireResolved(l, "m", false)
}

// TestAccessors exercises the small interpreter accessors.
func TestAccessors(t *testing.T) {
	it := New(Options{})
	if it.Global() == nil {
		t.Error("Global nil")
	}
	if it.protos.object == nil || it.protos.function == nil {
		t.Error("prototypes nil")
	}
	if it.CurrentModule() != "" {
		t.Errorf("initial module = %q", it.CurrentModule())
	}
	it.ResetBudget() // must not panic
}

// TestMockModuleSemantics drives the sandbox mock directly: every property
// read yields the mock function, which invokes callable arguments with
// proxy arguments and returns p*.
func TestMockModuleSemantics(t *testing.T) {
	it := New(Options{Approximate: true})
	mock := it.NewMockModule()
	prog, err := parser.Parse("t.js", `
var sawArgs = null;
mockMod.anything.at.all;
var fn = mockMod.readFile;
var ret = fn("path", function cb(a, b) { sawArgs = [a, b]; });
var constructed = new mockMod.Thing();
`)
	if err != nil {
		t.Fatal(err)
	}
	scope := value.NewScope(it.GlobalScope())
	scope.Declare("mockMod", mock)
	if _, err := it.RunProgram(prog, scope, value.Undefined{}); err != nil {
		t.Fatalf("mock semantics crashed: %v", err)
	}
	p := it.Proxy()
	ret, _ := scope.Get("ret")
	if ret != value.Value(p) {
		t.Error("mock call should return p*")
	}
	sawV, _ := scope.Get("sawArgs")
	saw, ok := sawV.(*value.Object)
	if !ok || saw.Class != value.ClassArray {
		t.Fatal("callback not invoked by mock")
	}
	for i := range saw.Elems {
		if saw.Elems[i] != value.Value(p) {
			t.Errorf("callback arg %d is not p*", i)
		}
	}
	// Constructing through a mock member yields an object (the fresh
	// instance; the mock constructor contributes nothing).
	cons, _ := scope.Get("constructed")
	if _, ok := cons.(*value.Object); !ok {
		t.Errorf("new mock.Thing() should yield an object, got %T", cons)
	}
}

// TestSpreadOfString exercises string spreading.
func TestSpreadOfString(t *testing.T) {
	wantNumber(t, run(t, `var a = [..."abc"]; var result = a.length;`), 3)
	wantString(t, run(t, `var a = [..."xy"]; var result = a[1];`), "y")
	// Spreading a non-iterable contributes nothing.
	wantNumber(t, run(t, `function f() { return arguments.length; } var result = f(...5);`), 0)
}
