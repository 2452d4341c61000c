package faultinject_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/parser"
	"repro/internal/value"
)

// countingHooks records how many events reached the wrapped (inner) hooks,
// proving the injector forwards before it panics.
type countingHooks struct {
	interp.NopHooks
	reads, calls, requires, evals, writes, staticWrites, defined, created int
}

func (c *countingHooks) ObjectCreated(obj *value.Object, l loc.Loc)         { c.created++ }
func (c *countingHooks) FunctionDefined(fn *value.Object, l loc.Loc)        { c.defined++ }
func (c *countingHooks) StaticWrite(b value.Value, p string, v value.Value) { c.staticWrites++ }
func (c *countingHooks) EvalCode(module, source string)                     { c.evals++ }
func (c *countingHooks) BeforeCall(site loc.Loc, callee *value.Object, this value.Value, args []value.Value) {
	c.calls++
}
func (c *countingHooks) DynamicRead(site loc.Loc, base value.Value, key string, result value.Value) {
	c.reads++
}
func (c *countingHooks) DynamicWrite(site loc.Loc, base value.Value, key string, val value.Value) {
	c.writes++
}
func (c *countingHooks) RequireResolved(site loc.Loc, name string, dynamic bool) { c.requires++ }

func catchPanic(f func()) (recovered any) {
	defer func() { recovered = recover() }()
	f()
	return nil
}

const target = "/app/b.js"

var (
	inTarget  = loc.Loc{File: target, Line: 3, Col: 1}
	elsewhere = loc.Loc{File: "/app/a.js", Line: 3, Col: 1}
)

// TestInjectorFiresAtNthMatchingEvent drives events straight into wrapped
// hooks: only the Nth matching event (same site kind, same module file)
// panics, non-matching events never do, and the inner hooks observe every
// event up to and including the triggering one.
func TestInjectorFiresAtNthMatchingEvent(t *testing.T) {
	inner := &countingHooks{}
	inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: faultinject.SitePropRead, N: 3})
	w := inj.Wrap(inner)

	// Two matching reads, plus noise that must not count: reads in another
	// file, calls/requires/evals in the target file.
	w.DynamicRead(inTarget, nil, "k", nil)
	w.DynamicRead(elsewhere, nil, "k", nil)
	w.BeforeCall(inTarget, &value.Object{}, nil, nil)
	w.RequireResolved(inTarget, "./lib", false)
	w.EvalCode(target, "1")
	w.DynamicRead(inTarget, nil, "k", nil)
	if inj.Fired() {
		t.Fatal("injector fired before the 3rd matching event")
	}

	r := catchPanic(func() { w.DynamicRead(inTarget, nil, "k", nil) })
	if r == nil {
		t.Fatal("3rd matching dynamic read did not panic")
	}
	p, ok := r.(faultinject.Panic)
	if !ok {
		t.Fatalf("panic value is %T, want faultinject.Panic", r)
	}
	if p.FaultModule() != target {
		t.Errorf("FaultModule() = %q, want %q", p.FaultModule(), target)
	}
	if fault.PanicModule(r, "fallback") != target {
		t.Errorf("fault.PanicModule does not see the injected attribution")
	}
	if !strings.Contains(p.Error(), "injected fault") || !strings.Contains(p.Error(), target) {
		t.Errorf("Panic.Error() = %q, want the fault description", p.Error())
	}
	if !inj.Fired() {
		t.Error("Fired() still false after the panic")
	}
	if inner.reads != 4 {
		t.Errorf("inner hooks saw %d reads, want 4 (forwarding including the triggering event)", inner.reads)
	}

	// Later events pass through unharmed: the fault fires once.
	if r := catchPanic(func() { w.DynamicRead(inTarget, nil, "k", nil) }); r != nil {
		t.Fatalf("injector fired twice: %v", r)
	}
}

// TestInjectorSiteKinds checks each injection site matches only its own
// hook event, with N defaulting to 1.
func TestInjectorSiteKinds(t *testing.T) {
	fire := map[faultinject.Site]func(interp.Hooks){
		faultinject.SitePropRead: func(h interp.Hooks) { h.DynamicRead(inTarget, nil, "k", nil) },
		faultinject.SiteCall:     func(h interp.Hooks) { h.BeforeCall(inTarget, &value.Object{}, nil, nil) },
		faultinject.SiteRequire:  func(h interp.Hooks) { h.RequireResolved(inTarget, "./x", true) },
		faultinject.SiteEval:     func(h interp.Hooks) { h.EvalCode(target, "0") },
	}
	for _, site := range faultinject.HookSites {
		inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: site})
		w := inj.Wrap(interp.NopHooks{})
		// Every OTHER site's event is a no-op for this injector.
		for other, f := range fire {
			if other == site {
				continue
			}
			if r := catchPanic(func() { f(w) }); r != nil {
				t.Fatalf("site %s fired on %s event: %v", site, other, r)
			}
		}
		if r := catchPanic(func() { fire[site](w) }); r == nil {
			t.Fatalf("site %s did not fire on its own event", site)
		}
	}
}

// TestInjectorCallSiteFallback: calls without a syntactic site (forced
// calls, natives) attribute to the callee's definition file.
func TestInjectorCallSiteFallback(t *testing.T) {
	inj := faultinject.NewInjector(faultinject.Fault{Module: target, Site: faultinject.SiteCall})
	w := inj.Wrap(interp.NopHooks{})
	callee := &value.Object{Alloc: loc.Loc{File: target, Line: 9, Col: 1}}
	if r := catchPanic(func() { w.BeforeCall(loc.Loc{}, callee, nil, nil) }); r == nil {
		t.Fatal("siteless call to a target-file callee did not fire")
	}
}

// TestInjectorForwardsAllEvents: the wrapper is transparent for event kinds
// it never injects on.
func TestInjectorForwardsAllEvents(t *testing.T) {
	inner := &countingHooks{}
	w := faultinject.NewInjector(faultinject.Fault{Module: target, Site: faultinject.SiteEval, N: 99}).Wrap(inner)
	obj := &value.Object{}
	w.ObjectCreated(obj, inTarget)
	w.FunctionDefined(obj, inTarget)
	w.StaticWrite(obj, "p", obj)
	w.DynamicWrite(inTarget, obj, "k", obj)
	w.DynamicRead(inTarget, obj, "k", obj)
	w.BeforeCall(inTarget, obj, nil, nil)
	w.RequireResolved(inTarget, "./x", false)
	w.EvalCode(target, "1")
	got := []int{inner.created, inner.defined, inner.staticWrites, inner.writes, inner.reads, inner.calls, inner.requires, inner.evals}
	for i, n := range got {
		if n != 1 {
			t.Errorf("event kind %d forwarded %d times, want 1", i, n)
		}
	}
}

// TestApplySource checks each source-fault kind: corrupt and truncated
// sources must not parse, the hang variant must still parse, the original
// project is never mutated, and the mutation is deterministic.
func TestApplySource(t *testing.T) {
	src := "var a = 1;\nfunction f() { return a; }\nmodule.exports = f;\n"
	proj := &modules.Project{
		Name:        "p",
		Files:       map[string]string{"/app/m.js": src},
		MainEntries: []string{"/app/m.js"},
	}
	for _, kind := range faultinject.SourceFaults {
		mutated, err := faultinject.ApplySource(proj, "/app/m.js", kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if proj.Files["/app/m.js"] != src {
			t.Fatalf("%s: original project mutated", kind)
		}
		msrc := mutated.Files["/app/m.js"]
		if msrc == src {
			t.Fatalf("%s: source unchanged", kind)
		}
		_, perr := parser.Parse("/app/m.js", msrc)
		switch kind {
		case faultinject.SourceHang:
			if perr != nil {
				t.Errorf("hang variant must parse, got %v", perr)
			}
			if !strings.Contains(msrc, "for (;;)") {
				t.Errorf("hang variant lacks the spin loop: %q", msrc)
			}
		default:
			if perr == nil {
				t.Errorf("%s variant still parses: %q", kind, msrc)
			}
		}
		again, err := faultinject.ApplySource(proj, "/app/m.js", kind)
		if err != nil || again.Files["/app/m.js"] != msrc {
			t.Errorf("%s: mutation not deterministic", kind)
		}
	}

	if _, err := faultinject.ApplySource(proj, "/app/missing.js", faultinject.SourceCorrupt); err == nil {
		t.Error("missing module did not error")
	}
	if _, err := faultinject.ApplySource(proj, "/app/m.js", faultinject.SourceFault("bogus")); err == nil {
		t.Error("unknown fault kind did not error")
	}
}

// TestFaultString covers the human-readable forms used in logs/reports.
func TestFaultString(t *testing.T) {
	f := faultinject.Fault{Module: target, Site: faultinject.SiteCall}
	if s := f.String(); !strings.Contains(s, "call #1") || !strings.Contains(s, target) {
		t.Errorf("Fault.String() = %q", s)
	}
}
