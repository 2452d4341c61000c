package static

import (
	"repro/internal/loc"
)

// This file models the feature tiers beyond the core subset: property
// accessors (object-literal get/set, defineProperty descriptors), user
// Proxy traps, and the Reflect namespace plumbing they share.
//
// Accessors are NOT data properties: reading o.p when p has a getter calls
// the getter, and the dynamic call graph attributes that call to the member
// expression's location. The static model mirrors that with pseudo-
// properties on the base object's tokens:
//
//	$get$<key> / $set$<key>  — named accessor functions (object literals,
//	                           defineProperty with a literal key)
//	$getsall / $setsall      — every named accessor of the object, for
//	                           computed accesses whose key is unknown (the
//	                           accessor analogue of the $elem conflation)
//	$getany / $setany        — Proxy get/set traps (key unknown)
//	$hasany / $keysany       — Proxy has/ownKeys traps
//
// Every named member read consults $get$<key> and $getany of the base's
// tokens (prototype chains included, like ordinary loads); every named
// member write consults $set$<key> and $setany; the `in` operator consults
// $hasany. When an accessor function token arrives, a call edge is added at
// the member-expression (or operator) site — matching where the recorder
// sees the interpreter's accessor invocation — and this/parameters/returns
// are wired.
//
// Reads of these pseudo-properties are wired on demand. Most projects
// define no accessor and no Proxy, yet every member access would otherwise
// walk its base's prototype chains for them. So each pseudo-property name
// sleeps until propVar creates its first ⟦t.name⟧ for any token; until then
// a read of it is a {base, collector} entry on the name's waiting list, and
// waking the name registers the waiting reads in order. This is exact:
// every writer of ⟦t.name⟧ (object-literal accessors, defineProperty,
// Proxy traps, plain stores and [DPW] hints that name a $-property) gets
// the variable from propVar, so before the wake every variable a waiting
// read would create is empty and has no in-edges, and registering the read
// later adds nothing the monotone fixpoint would not already hold. The
// collector that receives the accessor functions, and its invocation
// trigger, stay eager: a collector created at wake time inside a rollback
// window would be a variable rollbackTo releases while a pre-window
// waiting entry still names it.

// accKind is the family of an accessor pseudo-property name.
type accKind uint8

const (
	accGet     accKind = iota // $get$<key>
	accSet                    // $set$<key>
	accGetAny                 // $getany
	accSetAny                 // $setany
	accGetsAll                // $getsall
	accSetsAll                // $setsall
	accHasAny                 // $hasany
	accKeysAny                // $keysany
)

// accKeyless spells the pseudo-property names that carry no key.
var accKeyless = [...]string{
	accGetAny:  "$getany",
	accSetAny:  "$setany",
	accGetsAll: "$getsall",
	accSetsAll: "$setsall",
	accHasAny:  "$hasany",
	accKeysAny: "$keysany",
}

// accName is an accessor pseudo-property name, kept as its family and key
// so that a read site does not build the "$get$"+key string.
type accName struct {
	kind accKind
	key  string // the accessor's property key, for accGet and accSet
}

func (n accName) String() string {
	switch n.kind {
	case accGet:
		return "$get$" + n.key
	case accSet:
		return "$set$" + n.key
	}
	return accKeyless[n.kind]
}

// accessorNameOf parses a property name as an accessor pseudo-property.
func accessorNameOf(prop string) (accName, bool) {
	if len(prop) < len("$get$") || prop[0] != '$' {
		return accName{}, false
	}
	switch prop[:len("$get$")] {
	case "$get$":
		return accName{accGet, prop[len("$get$"):]}, true
	case "$set$":
		return accName{accSet, prop[len("$set$"):]}, true
	}
	for k := accGetAny; k <= accKeysAny; k++ {
		if prop == accKeyless[k] {
			return accName{kind: k}, true
		}
	}
	return accName{}, false
}

// accessorReads is the wake state of one accessor pseudo-property name.
type accessorReads struct {
	awake bool
	// waiting holds the reads requested while the name slept, in request
	// order; ctxs holds their rule contexts when provenance is on.
	waiting []accessorRead
	ctxs    []provRecord
}

type accessorRead struct{ base, fns Var }

// readAccessor wires the read of pseudo-property n of base's non-native
// tokens, prototype chains included, into the collector fns: at once if n
// is awake, or when it wakes.
func (a *analyzer) readAccessor(base Var, n accName, fns Var) {
	w := a.accessorState(n)
	if w.awake {
		a.wireAccessorRead(base, n.String(), fns)
		return
	}
	w.waiting = append(w.waiting, accessorRead{base, fns})
	if j := a.s.prov; j != nil {
		w.ctxs = append(w.ctxs, j.cur)
	}
	if a.journal != nil {
		a.journal.accessorWaits = append(a.journal.accessorWaits, n)
	}
}

// wakeAccessor is called by propVar for every property variable it creates.
// The first variable of an accessor pseudo-property name wakes the name and
// registers its waiting reads, each under the rule context it was requested
// in.
func (a *analyzer) wakeAccessor(prop string) {
	n, ok := accessorNameOf(prop)
	if !ok {
		return
	}
	w := a.accessorState(n)
	if w.awake {
		return
	}
	w.awake = true
	if a.journal != nil {
		a.journal.accessorWakes = append(a.journal.accessorWakes, n)
	}
	j := a.s.prov
	var ambient provRecord
	if j != nil {
		ambient = j.cur
	}
	for i, r := range w.waiting {
		if j != nil {
			j.cur = w.ctxs[i]
		}
		a.wireAccessorRead(r.base, prop, r.fns)
	}
	if j != nil {
		j.cur = ambient
	}
}

func (a *analyzer) accessorState(n accName) *accessorReads {
	w := a.accessors[n]
	if w == nil {
		w = &accessorReads{}
		a.accessors[n] = w
	}
	return w
}

// wireAccessorRead registers the prototype-chain read of pseudo-property
// prop of base's tokens into fns.
func (a *analyzer) wireAccessorRead(base Var, prop string, fns Var) {
	a.onTokenCtx(base, func(t Token) {
		if a.tokens[t].kind == tokNative {
			return // native members are plain data; no accessor model
		}
		a.loadFromToken(t, prop, fns)
	})
}

// accessorLoad wires accessor invocation for a named property read: getter
// functions stored under $get$<prop> and Proxy get traps under $getany are
// called at the read site, their this bound to the base and their results
// flowing to the read's destination.
func (a *analyzer) accessorLoad(base Var, prop string, dst Var, site loc.Loc) {
	a.callGetters(base, dst, site, prop, accName{accGet, prop}, accName{kind: accGetAny})
}

// accessorLoadAny wires accessor invocation for a computed property read
// x[k]: the key is unknown, so Proxy get traps ($getany) and every named
// getter of the base ($getsall — the accessor analogue of the $elem
// conflation) are called at the read site.
func (a *analyzer) accessorLoadAny(base Var, dst Var, site loc.Loc) {
	a.callGetters(base, dst, site, "", accName{kind: accGetAny}, accName{kind: accGetsAll})
}

// callGetters calls, at site, the functions read from pseudo-properties n1
// and n2 of base's tokens, their this bound to base and their results
// flowing to dst.
func (a *analyzer) callGetters(base, dst Var, site loc.Loc, detail string, n1, n2 accName) {
	encl := a.curFn
	getters := a.s.newVar()
	prev := a.pushCtx(RuleAccessor, site, detail)
	a.readAccessor(base, n1, getters)
	a.readAccessor(base, n2, getters)
	a.onTokenCtx(getters, func(t Token) {
		if a.tokens[t].kind != tokFunction {
			return
		}
		a.cg.AddSite(site, encl)
		a.cg.AddEdge(site, a.tokens[t].fn.Loc)
		fi := a.fnInfoFor(t)
		a.s.addEdge(base, fi.this)
		a.s.addEdge(fi.out, dst)
	})
	a.popCtx(prev)
}

// accessorStore wires accessor invocation for a named property write:
// setters under $set$<prop> receive the written value as their first
// parameter; Proxy set traps under $setany receive it as their third
// (target, key, value, receiver).
func (a *analyzer) accessorStore(base Var, prop string, val Var, site loc.Loc) {
	a.callSetters(base, val, site, prop, accName{accSet, prop})
}

// accessorStoreAny wires accessor invocation for a computed property write
// x[k] = v: Proxy set traps ($setany) receive the written value as their
// third parameter, named setters ($setsall) as their first.
func (a *analyzer) accessorStoreAny(base Var, val Var, site loc.Loc) {
	a.callSetters(base, val, site, "", accName{kind: accSetsAll})
}

// callSetters calls, at site, the setters read from pseudo-property named
// of base's tokens with val as their first parameter, and the Proxy set
// traps read from $setany with val as their third.
func (a *analyzer) callSetters(base, val Var, site loc.Loc, detail string, named accName) {
	encl := a.curFn
	setters := a.s.newVar()
	traps := a.s.newVar()
	prev := a.pushCtx(RuleAccessor, site, detail)
	a.readAccessor(base, named, setters)
	a.readAccessor(base, accName{kind: accSetAny}, traps)
	wire := func(fns Var, valIdx int) {
		a.onTokenCtx(fns, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddSite(site, encl)
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			a.s.addEdge(base, fi.this)
			if valIdx < len(fi.params) && valIdx != fi.restIdx {
				a.s.addEdge(val, fi.params[valIdx])
			}
			a.s.addEdge(val, fi.argsElem)
		})
	}
	wire(setters, 0)
	wire(traps, 2)
	a.popCtx(prev)
}

// hasTrapCheck wires `key in obj` (and Reflect.has) to Proxy has traps on
// the object's tokens: a trap function arriving under $hasany is called at
// the operator's site.
func (a *analyzer) hasTrapCheck(base Var, site loc.Loc) {
	encl := a.curFn
	traps := a.s.newVar()
	prev := a.pushCtx(RuleAccessor, site, "in")
	a.readAccessor(base, accName{kind: accHasAny}, traps)
	a.onTokenCtx(traps, func(t Token) {
		if a.tokens[t].kind != tokFunction {
			return
		}
		a.cg.AddSite(site, encl)
		a.cg.AddEdge(site, a.tokens[t].fn.Loc)
	})
	a.popCtx(prev)
}

// definePropertyModel wires an Object.defineProperty call whose property
// key is a string literal: descriptor get/set functions become
// $get$<key>/$set$<key> pseudo-properties on the target's tokens (the
// accessor model above), and a value descriptor becomes a plain store.
// Dynamic keys stay unmodeled, as in the paper's baseline — those flows
// are recovered by the [DPW] hints the interpreter emits for them.
func (a *analyzer) definePropertyModel(site loc.Loc, argVars []Var) {
	key, ok := a.strArg(site, 1)
	if !ok || len(argVars) < 3 {
		return
	}
	tgt, desc := argVars[0], argVars[2]
	getV := a.s.newVar()
	setV := a.s.newVar()
	valV := a.s.newVar()
	a.addLoad(desc, "get", getV)
	a.addLoad(desc, "set", setV)
	a.addLoad(desc, "value", valV)
	a.onTokenCtx(tgt, func(t Token) {
		if a.tokens[t].kind == tokNative {
			return
		}
		a.s.addEdge(getV, a.propVar(t, "$get$"+key))
		a.s.addEdge(getV, a.propVar(t, "$getsall"))
		a.s.addEdge(setV, a.propVar(t, "$set$"+key))
		a.s.addEdge(setV, a.propVar(t, "$setsall"))
		a.s.addEdge(valV, a.propVar(t, key))
	})
}

// yieldSinkOf resolves the generator whose element set a yield expression
// feeds: the nearest enclosing non-arrow function must be a generator
// (arrows inherit the sink lexically, mirroring the interpreter).
func yieldSinkOf(fr *frame) (Var, bool) {
	for cur := fr; cur != nil; cur = cur.parent {
		fi := cur.fn
		if fi == nil {
			return 0, false
		}
		if fi.decl.IsGenerator {
			return fi.yieldElem, true
		}
		if !fi.decl.IsArrow {
			return 0, false
		}
	}
	return 0, false
}
