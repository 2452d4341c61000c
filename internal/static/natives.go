package static

import (
	"strings"

	"repro/internal/callgraph"
	"repro/internal/loc"
	"repro/internal/modules"
)

// setupNativeTokens creates the built-in namespace and prototype tokens and
// seeds the global bindings. The modeling level matches the paper's
// baseline analyzer: core ECMAScript functions are modeled, but the
// reflective copying operations (Object.assign, Object.defineProperty) do
// NOT copy properties — recovering those flows is exactly what the hints
// are for.
func (a *analyzer) setupNativeTokens() {
	a.objectProto = a.nativeToken("Object.prototype")
	a.arrayProto = a.nativeToken("Array.prototype")
	a.functionProto = a.nativeToken("Function.prototype")

	bind := func(name string) {
		v := a.globalVar(name)
		a.s.addToken(v, a.nativeToken(name))
	}
	for _, name := range []string{
		"Object", "Array", "Function", "String", "Number", "Boolean",
		"Math", "JSON", "console", "RegExp", "Error", "TypeError",
		"RangeError", "SyntaxError", "ReferenceError", "EvalError",
		"parseInt", "parseFloat", "isNaN", "isFinite", "eval",
		"setTimeout", "setInterval", "setImmediate", "clearTimeout",
		"clearInterval", "process", "globalThis", "global", "Promise",
		"Symbol", "Date", "Map", "Set", "Buffer", "Proxy", "Reflect",
	} {
		bind(name)
	}
	// Object.prototype / Array.prototype / Function.prototype are reachable
	// as properties of their constructors.
	a.s.addToken(a.propVar(a.nativeToken("Object"), "prototype"), a.objectProto)
	a.s.addToken(a.propVar(a.nativeToken("Array"), "prototype"), a.arrayProto)
	a.s.addToken(a.propVar(a.nativeToken("Function"), "prototype"), a.functionProto)
}

// protoMembers lists the members each built-in prototype actually has;
// property loads on these tokens only resolve to listed names.
var protoMembers = map[string]map[string]bool{
	"Object.prototype": setOf("hasOwnProperty", "isPrototypeOf",
		"propertyIsEnumerable", "toString", "valueOf", "constructor"),
	"Array.prototype": setOf("forEach", "map", "filter", "find", "findIndex",
		"some", "every", "reduce", "reduceRight", "push", "pop", "shift",
		"unshift", "slice", "splice", "concat", "join", "indexOf",
		"lastIndexOf", "includes", "reverse", "sort", "flat", "fill",
		"toString", "length", "constructor"),
	"Function.prototype": setOf("apply", "call", "bind", "toString",
		"constructor", "name", "length"),
	"Map.prototype": setOf("get", "set", "has", "delete", "clear", "forEach",
		"keys", "values", "size", "constructor"),
	"Set.prototype": setOf("add", "has", "delete", "clear", "forEach",
		"values", "size", "constructor"),
	"Promise.prototype":   setOf("then", "catch", "finally", "constructor"),
	"Generator.prototype": setOf("next", "return", "throw", "constructor"),
}

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// nativeHasMember reports whether reading prop on the native token named ns
// yields a member token. Prototype tokens expose only their real members;
// top-level namespace tokens (Math, console, process, …) expose anything;
// already-synthesized member tokens (names containing a dot) expose
// nothing — otherwise member names would compound without bound through
// assignment cycles (X.p → X.p.q → …), diverging the solver.
func nativeHasMember(ns, prop string) bool {
	if members, ok := protoMembers[ns]; ok {
		return members[prop]
	}
	return !strings.Contains(ns, ".")
}

// behaviorName canonicalizes a native member name to a behavior key:
// prototype methods of Array/Function behave the same however they are
// reached.
func behaviorName(name string) string {
	name = strings.TrimPrefix(name, "globalThis.")
	name = strings.TrimPrefix(name, "global.")
	return name
}

// nativeCall models a call to a built-in. Only dataflow-relevant behaviors
// are modeled; everything else is a no-op whose site still counts as
// resolved-by-native.
func (a *analyzer) nativeCall(name string, site loc.Loc, recvVar Var, recvValid bool, argVars []Var, result Var, newTok Token, isNew bool) {
	name = behaviorName(name)
	prev := a.pushCtx(RuleNative, site, name)
	defer a.popCtx(prev)
	argOr := func(i int) (Var, bool) {
		if i < len(argVars) {
			return argVars[i], true
		}
		return 0, false
	}

	switch name {
	case "require":
		a.requireCall(site, result)

	case "eval":
		// Direct eval returns the completion value of the evaluated code.
		// genEvalHints routes each observed program's completion values
		// into the containing module's eval-result variable; forward them
		// to this call's result so values returned out of eval'd code
		// (e.g. closures) reach the surrounding program.
		if mod, ok := a.siteModule[site]; ok {
			a.s.addEdge(a.evalResultVar(mod), result)
		}

	case "Object":
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, result)
		}

	case "Object.create":
		t := a.allocToken(site, tokObject)
		a.s.addToken(result, t)
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, a.protoVar(t))
		}
		// The property-descriptor argument is NOT modeled (dynamic names);
		// hints recover those flows.

	case "Object.assign", "Object.freeze", "Object.seal",
		"Object.defineProperty", "Object.defineProperties",
		"Object.setPrototypeOf":
		// Return the target object; no property copying (the modeled
		// unsoundness targeted by the paper). Exception: defineProperty
		// with a literal key is fully static — its descriptor wires the
		// accessor pseudo-properties (features.go), which is how class
		// accessors and ESM live-binding getters are declared.
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, result)
		}
		if name == "Object.defineProperty" {
			a.definePropertyModel(site, argVars)
		}
		if name == "Object.setPrototypeOf" {
			if tgt, ok := argOr(0); ok {
				if proto, ok2 := argOr(1); ok2 {
					a.onTokenCtx(tgt, func(t Token) {
						if a.tokens[t].kind != tokNative {
							a.s.addEdge(proto, a.protoVar(t))
						}
					})
				}
			}
		}

	case "Object.keys", "Object.getOwnPropertyNames", "Object.values",
		"Object.entries":
		// Returns a fresh array; its elements (strings, or arbitrary
		// property values for values/entries) are not tracked — that
		// unsoundness is exactly what the hints compensate for — but the
		// array token lets chained iteration (….forEach(cb)) resolve.
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		a.s.addToken(result, t)

	case "Object.getPrototypeOf":
		if v, ok := argOr(0); ok {
			a.onTokenCtx(v, func(t Token) {
				a.s.addEdge(a.protoVar(t), result)
			})
		}

	case "Array", "Array.of":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		elem := a.propVar(t, "$elem")
		for _, av := range argVars {
			a.s.addEdge(av, elem)
		}
		a.s.addToken(result, t)

	case "Array.from":
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, result)
		}

	case "Array.prototype.forEach", "Array.prototype.map",
		"Array.prototype.filter", "Array.prototype.find",
		"Array.prototype.findIndex", "Array.prototype.some",
		"Array.prototype.every":
		cb, ok := argOr(0)
		if !ok {
			return
		}
		// element variable of the receiver
		elems := a.s.newVar()
		if recvValid {
			a.addLoad(recvVar, "$elem", elems)
		}
		a.onTokenCtx(cb, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			if len(fi.params) > 0 && fi.restIdx != 0 {
				a.s.addEdge(elems, fi.params[0])
			}
			a.s.addEdge(elems, fi.argsElem)
			if recvValid && len(fi.params) > 2 {
				a.s.addEdge(recvVar, fi.params[2])
			}
			// thisArg
			if thisArg, ok := argOr(1); ok {
				a.s.addEdge(thisArg, fi.this)
			}
			switch name {
			case "Array.prototype.filter", "Array.prototype.find":
				a.s.addEdge(elems, result)
			case "Array.prototype.map":
				mt := a.allocToken(site, tokObject)
				a.s.addToken(a.protoVar(mt), a.arrayProto)
				a.s.addEdge(fi.out, a.propVar(mt, "$elem"))
				a.s.addToken(result, mt)
			}
		})
		if name == "Array.prototype.forEach" && recvValid {
			// forEach returns undefined; nothing flows.
			_ = recvVar
		}

	case "Array.prototype.reduce", "Array.prototype.reduceRight":
		cb, ok := argOr(0)
		if !ok {
			return
		}
		elems := a.s.newVar()
		if recvValid {
			a.addLoad(recvVar, "$elem", elems)
		}
		a.onTokenCtx(cb, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			if len(fi.params) > 0 {
				if init, ok := argOr(1); ok {
					a.s.addEdge(init, fi.params[0])
				}
				a.s.addEdge(elems, fi.params[0]) // no-initial-value case
				a.s.addEdge(fi.out, fi.params[0])
			}
			if len(fi.params) > 1 {
				a.s.addEdge(elems, fi.params[1])
			}
			a.s.addEdge(fi.out, result)
		})
		if init, ok := argOr(1); ok {
			a.s.addEdge(init, result)
		}

	case "Array.prototype.push", "Array.prototype.unshift":
		if recvValid {
			a.onTokenCtx(recvVar, func(t Token) {
				if a.tokens[t].kind == tokNative {
					return
				}
				for _, av := range argVars {
					a.s.addEdge(av, a.propVar(t, "$elem"))
				}
			})
		}

	case "Array.prototype.pop", "Array.prototype.shift":
		if recvValid {
			a.addLoad(recvVar, "$elem", result)
		}

	case "Array.prototype.slice", "Array.prototype.splice",
		"Array.prototype.reverse", "Array.prototype.flat",
		"Array.prototype.sort", "Array.prototype.fill":
		// Result aliases the receiver (approximation preserving $elem flow,
		// important for the slice.call(arguments) idiom).
		if recvValid {
			a.s.addEdge(recvVar, result)
		}
		if name == "Array.prototype.sort" {
			if cmp, ok := argOr(0); ok {
				elems := a.s.newVar()
				if recvValid {
					a.addLoad(recvVar, "$elem", elems)
				}
				a.onTokenCtx(cmp, func(t Token) {
					if a.tokens[t].kind != tokFunction {
						return
					}
					a.cg.AddEdge(site, a.tokens[t].fn.Loc)
					fi := a.fnInfoFor(t)
					for i := 0; i < len(fi.params) && i < 2; i++ {
						a.s.addEdge(elems, fi.params[i])
					}
				})
			}
		}

	case "Array.prototype.concat":
		if recvValid {
			a.s.addEdge(recvVar, result)
		}
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		elem := a.propVar(t, "$elem")
		if recvValid {
			a.addLoad(recvVar, "$elem", elem)
		}
		for _, av := range argVars {
			a.addLoad(av, "$elem", elem)
			a.s.addEdge(av, elem) // non-array args are appended directly
		}
		a.s.addToken(result, t)

	case "Function.prototype.apply":
		if !recvValid {
			return
		}
		spreadElems := a.s.newVar()
		if av, ok := argOr(1); ok {
			a.addLoad(av, "$elem", spreadElems)
		}
		a.onTokenCtx(recvVar, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			if thisArg, ok := argOr(0); ok {
				a.s.addEdge(thisArg, fi.this)
			}
			// Unknown argument positions: every parameter receives the
			// spread elements.
			for i, p := range fi.params {
				if i == fi.restIdx {
					continue
				}
				a.s.addEdge(spreadElems, p)
			}
			if fi.restIdx >= 0 {
				a.s.addEdge(spreadElems, fi.restElem)
			}
			a.s.addEdge(spreadElems, fi.argsElem)
			a.s.addEdge(fi.out, result)
		})

	case "Function.prototype.call":
		if !recvValid {
			return
		}
		a.onTokenCtx(recvVar, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			if thisArg, ok := argOr(0); ok {
				a.s.addEdge(thisArg, fi.this)
			}
			a.wireArgs(fi, argVarsTail(argVars))
			a.s.addEdge(fi.out, result)
		})

	case "Function.prototype.bind":
		// bound function ≈ original function (this/partial args ignored).
		if recvValid {
			a.s.addEdge(recvVar, result)
		}

	case "setTimeout", "setInterval", "setImmediate", "process.nextTick",
		"queueMicrotask":
		if cb, ok := argOr(0); ok {
			a.onTokenCtx(cb, func(t Token) {
				if a.tokens[t].kind != tokFunction {
					return
				}
				a.cg.AddEdge(site, a.tokens[t].fn.Loc)
				// Extra args after the delay flow to the parameters.
				fi := a.fnInfoFor(t)
				if len(argVars) > 2 {
					a.wireArgs(fi, argVars[2:])
				}
			})
		}

	case "Error", "TypeError", "RangeError", "SyntaxError",
		"ReferenceError", "EvalError":
		if !isNew {
			t := a.allocToken(site, tokObject)
			a.s.addToken(a.protoVar(t), a.objectProto)
			a.s.addToken(result, t)
		}

	case "JSON.parse":
		// Produces parser-created structures: a fresh object token keeps
		// downstream property reads/writes anchored.
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.objectProto)
		a.s.addToken(result, t)

	case "String.prototype.split", "String.prototype.match":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		a.s.addToken(result, t)

	case "String.prototype.replace":
		// A function replacer is invoked per match.
		if cb, ok := argOr(1); ok {
			a.onTokenCtx(cb, func(t Token) {
				if a.tokens[t].kind == tokFunction {
					a.cg.AddEdge(site, a.tokens[t].fn.Loc)
				}
			})
		}

	case "Promise":
		// new Promise(executor): the executor runs synchronously; its
		// resolve argument's payloads conflate into the promise token's
		// $promiseval.
		tok := newTok
		if !isNew {
			tok = a.allocToken(site, tokObject)
			a.s.addToken(result, tok)
		}
		a.s.addToken(a.protoVar(tok), a.nativeToken("Promise.prototype"))
		if cb, ok := argOr(0); ok {
			payload := a.propVar(tok, "$promiseval")
			// The executor's resolve/reject parameters are site-specific
			// native functions: values passed to them flow into this
			// promise's payload.
			resolveTok := a.newToken(tokenInfo{kind: tokNative, name: "promise-resolve"})
			a.tokenBehaviors[resolveTok] = func(_ loc.Loc, callArgs []Var, _ Var) {
				if len(callArgs) > 0 {
					a.s.addEdge(callArgs[0], payload)
				}
			}
			a.onTokenCtx(cb, func(t Token) {
				if a.tokens[t].kind != tokFunction {
					return
				}
				a.cg.AddEdge(site, a.tokens[t].fn.Loc)
				fi := a.fnInfoFor(t)
				for i := 0; i < len(fi.params) && i < 2; i++ {
					a.s.addToken(fi.params[i], resolveTok)
				}
			})
		}

	case "Promise.resolve":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.nativeToken("Promise.prototype"))
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, a.propVar(t, "$promiseval"))
		}
		a.s.addToken(result, t)

	case "Promise.reject", "Promise.all":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.nativeToken("Promise.prototype"))
		if v, ok := argOr(0); ok {
			a.s.addEdge(v, a.propVar(t, "$promiseval"))
			a.addLoad(v, "$elem", a.propVar(t, "$promiseval")) // all: array elements
		}
		if name == "Promise.all" {
			// all fulfills with a fresh array of settled values: each input
			// element contributes itself (non-promise passthrough) and its
			// promise payload.
			if v, ok := argOr(0); ok {
				res := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
				a.s.addToken(a.protoVar(res), a.arrayProto)
				elems := a.s.newVar()
				a.addLoad(v, "$elem", elems)
				a.s.addEdge(elems, a.propVar(res, "$elem"))
				a.addLoad(elems, "$promiseval", a.propVar(res, "$elem"))
				a.s.addToken(a.propVar(t, "$promiseval"), res)
			}
		}
		a.s.addToken(result, t)

	case "Promise.race", "Promise.any":
		// The winning element settles the result: non-promise entries
		// settle as themselves, promise entries to their payload.
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.nativeToken("Promise.prototype"))
		if v, ok := argOr(0); ok {
			payload := a.propVar(t, "$promiseval")
			elems := a.s.newVar()
			a.addLoad(v, "$elem", elems)
			a.s.addEdge(elems, payload)
			a.addLoad(elems, "$promiseval", payload)
		}
		a.s.addToken(result, t)

	case "Promise.allSettled":
		// Fulfills with an array of {status, value|reason} entry objects.
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.nativeToken("Promise.prototype"))
		res := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
		a.s.addToken(a.protoVar(res), a.arrayProto)
		entry := a.newToken(tokenInfo{kind: tokObject, site: loc.Loc{}})
		a.s.addToken(a.protoVar(entry), a.objectProto)
		a.s.addToken(a.propVar(res, "$elem"), entry)
		if v, ok := argOr(0); ok {
			elems := a.s.newVar()
			a.addLoad(v, "$elem", elems)
			for _, prop := range []string{"value", "reason"} {
				a.s.addEdge(elems, a.propVar(entry, prop))
				a.addLoad(elems, "$promiseval", a.propVar(entry, prop))
			}
		}
		a.s.addToken(a.propVar(t, "$promiseval"), res)
		a.s.addToken(result, t)

	case "Promise.prototype.then", "Promise.prototype.catch",
		"Promise.prototype.finally":
		// The callback receives the (conflated) payload; the result promise
		// carries the callback's return.
		payload := a.s.newVar()
		if recvValid {
			a.addLoad(recvVar, "$promiseval", payload)
		}
		out := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(out), a.nativeToken("Promise.prototype"))
		a.s.addToken(result, out)
		if cb, ok := argOr(0); ok {
			a.onTokenCtx(cb, func(t Token) {
				if a.tokens[t].kind != tokFunction {
					return
				}
				a.cg.AddEdge(site, a.tokens[t].fn.Loc)
				fi := a.fnInfoFor(t)
				if len(fi.params) > 0 && fi.restIdx != 0 {
					a.s.addEdge(payload, fi.params[0])
				}
				a.s.addEdge(fi.out, a.propVar(out, "$promiseval"))
			})
		}
		if recvValid {
			// Pass-through for the unhandled state.
			a.onTokenCtx(recvVar, func(t Token) {
				if a.tokens[t].kind != tokNative {
					a.s.addEdge(a.propVar(t, "$promiseval"), a.propVar(out, "$promiseval"))
				}
			})
		}

	case "Map", "Set", "WeakMap", "WeakSet":
		// new Map()/new Set(): keys and values conflate into $mapval on the
		// collection token (the standard collection abstraction).
		tok := newTok
		if !isNew {
			tok = a.allocToken(site, tokObject)
			a.s.addToken(result, tok)
		}
		protoName := "Map.prototype"
		if name == "Set" || name == "WeakSet" {
			protoName = "Set.prototype"
		}
		a.s.addToken(a.protoVar(tok), a.nativeToken(protoName))
		if seed, ok := argOr(0); ok {
			// Set seeds hold values directly; Map seeds hold [key, value]
			// pairs, so unwrap one more $elem level for those.
			entries := a.s.newVar()
			a.addLoad(seed, "$elem", entries)
			a.s.addEdge(entries, a.propVar(tok, "$mapval"))
			a.addLoad(entries, "$elem", a.propVar(tok, "$mapval"))
		}

	case "Map.prototype.set", "Set.prototype.add":
		if recvValid {
			a.onTokenCtx(recvVar, func(t Token) {
				if a.tokens[t].kind == tokNative {
					return
				}
				for _, av := range argVars {
					a.s.addEdge(av, a.propVar(t, "$mapval"))
				}
			})
			a.s.addEdge(recvVar, result) // set/add return the collection
		}

	case "Map.prototype.get":
		if recvValid {
			a.addLoad(recvVar, "$mapval", result)
		}

	case "Map.prototype.keys", "Map.prototype.values", "Set.prototype.values":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		if recvValid {
			a.addLoad(recvVar, "$mapval", a.propVar(t, "$elem"))
		}
		a.s.addToken(result, t)

	case "Map.prototype.forEach", "Set.prototype.forEach":
		vals := a.s.newVar()
		if recvValid {
			a.addLoad(recvVar, "$mapval", vals)
		}
		if cb, ok := argOr(0); ok {
			a.onTokenCtx(cb, func(t Token) {
				if a.tokens[t].kind != tokFunction {
					return
				}
				a.cg.AddEdge(site, a.tokens[t].fn.Loc)
				fi := a.fnInfoFor(t)
				for i := 0; i < len(fi.params) && i < 2; i++ {
					a.s.addEdge(vals, fi.params[i])
				}
				if recvValid && len(fi.params) > 2 {
					a.s.addEdge(recvVar, fi.params[2])
				}
			})
		}

	case "Generator.prototype.next", "Generator.prototype.return",
		"Generator.prototype.throw":
		// next() returns a fresh {value, done} object per site; under the
		// eager model value draws from the yielded elements and, at
		// exhaustion, the body's return value. return(v) echoes v.
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.objectProto)
		v := a.propVar(t, "value")
		if recvValid && name == "Generator.prototype.next" {
			a.addLoad(recvVar, "$elem", v)
			a.addLoad(recvVar, "$genret", v)
		}
		if name == "Generator.prototype.return" {
			if av, ok := argOr(0); ok {
				a.s.addEdge(av, v)
			}
		}
		a.s.addToken(result, t)

	case "Proxy":
		// new Proxy(target, handler): the proxy aliases its target (the
		// trapless-forwarder semantics), and handler traps become $…any
		// pseudo-properties on the proxy's token so member reads, writes,
		// `in`, and Reflect.ownKeys on the proxy call them (features.go).
		tok := newTok
		if !isNew {
			tok = a.allocToken(site, tokObject)
			a.s.addToken(result, tok)
		}
		a.s.addToken(a.protoVar(tok), a.objectProto)
		tgt, hasTgt := argOr(0)
		if hasTgt {
			a.s.addEdge(tgt, result)
		}
		h, hasH := argOr(1)
		if !hasH {
			return
		}
		proxyVal := a.s.newVar()
		a.s.addToken(proxyVal, tok)
		wireTrap := func(trap, pseudo string, extra func(fi *fnInfo)) {
			tv := a.s.newVar()
			a.addLoad(h, trap, tv)
			a.s.addEdge(tv, a.propVar(tok, pseudo))
			a.onTokenCtx(tv, func(t Token) {
				if a.tokens[t].kind != tokFunction {
					return
				}
				fi := a.fnInfoFor(t)
				if hasTgt && len(fi.params) > 0 && fi.restIdx != 0 {
					a.s.addEdge(tgt, fi.params[0])
				}
				a.s.addEdge(h, fi.this)
				if extra != nil {
					extra(fi)
				}
			})
		}
		wireTrap("get", "$getany", func(fi *fnInfo) {
			if len(fi.params) > 2 && fi.restIdx != 2 {
				a.s.addEdge(proxyVal, fi.params[2]) // receiver
			}
		})
		wireTrap("set", "$setany", func(fi *fnInfo) {
			if len(fi.params) > 3 && fi.restIdx != 3 {
				a.s.addEdge(proxyVal, fi.params[3]) // receiver
			}
		})
		wireTrap("has", "$hasany", nil)
		wireTrap("ownKeys", "$keysany", nil)
		// The apply trap makes the proxy callable: trap functions flow into
		// the proxy's value, so call sites on the proxy wire edges to them
		// (and, via the target alias above, to the forwarded target).
		applyV := a.s.newVar()
		a.addLoad(h, "apply", applyV)
		a.s.addEdge(applyV, result)
		a.onTokenCtx(applyV, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			fi := a.fnInfoFor(t)
			if hasTgt && len(fi.params) > 0 && fi.restIdx != 0 {
				a.s.addEdge(tgt, fi.params[0])
			}
			a.s.addEdge(h, fi.this)
		})

	case "Reflect.apply":
		cb, ok := argOr(0)
		if !ok {
			return
		}
		spreadElems := a.s.newVar()
		if av, ok2 := argOr(2); ok2 {
			a.addLoad(av, "$elem", spreadElems)
		}
		a.onTokenCtx(cb, func(t Token) {
			if a.tokens[t].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[t].fn.Loc)
			fi := a.fnInfoFor(t)
			if thisArg, ok2 := argOr(1); ok2 {
				a.s.addEdge(thisArg, fi.this)
			}
			for i, p := range fi.params {
				if i == fi.restIdx {
					continue
				}
				a.s.addEdge(spreadElems, p)
			}
			if fi.restIdx >= 0 {
				a.s.addEdge(spreadElems, fi.restElem)
			}
			a.s.addEdge(spreadElems, fi.argsElem)
			a.s.addEdge(fi.out, result)
		})

	case "Reflect.construct":
		cb, ok := argOr(0)
		if !ok {
			return
		}
		t := a.allocToken(site, tokObject)
		a.s.addToken(result, t)
		spreadElems := a.s.newVar()
		if av, ok2 := argOr(1); ok2 {
			a.addLoad(av, "$elem", spreadElems)
		}
		a.onTokenCtx(cb, func(ft Token) {
			if a.tokens[ft].kind != tokFunction {
				return
			}
			a.cg.AddEdge(site, a.tokens[ft].fn.Loc)
			fi := a.fnInfoFor(ft)
			a.s.addToken(fi.this, t)
			tmp := a.s.newVar()
			a.loadFromToken(ft, "prototype", tmp)
			a.s.addEdge(tmp, a.protoVar(t))
			for i, p := range fi.params {
				if i == fi.restIdx {
					continue
				}
				a.s.addEdge(spreadElems, p)
			}
			if fi.restIdx >= 0 {
				a.s.addEdge(spreadElems, fi.restElem)
			}
			a.s.addEdge(spreadElems, fi.argsElem)
			a.s.addEdge(fi.out, result)
		})

	case "Reflect.get":
		base, ok := argOr(0)
		if !ok {
			return
		}
		if key, ok2 := a.strArg(site, 1); ok2 {
			a.addLoad(base, key, result)
			a.accessorLoad(base, key, result, site)
		} else {
			// Dynamic key: a computed read — the interpreter fires a
			// DynamicRead at this site, so [DPR] hints inject here; the
			// element-conflation rule applies as for x[k].
			a.dynReadBases[site] = base
			dst := a.dynReadVar(site)
			a.elemRead(base, dst, site)
			a.s.addEdge(dst, result)
		}

	case "Reflect.set":
		base, ok := argOr(0)
		val, okV := argOr(2)
		if !ok || !okV {
			return
		}
		if key, ok2 := a.strArg(site, 1); ok2 {
			a.addStore(base, key, val)
			a.accessorStore(base, key, val, site)
		} else {
			// Dynamic key: a computed write, recovered by [DPW] hints.
			a.dynWrites[site] = dynWriteInfo{base: base, value: val}
		}

	case "Reflect.has":
		if base, ok := argOr(0); ok {
			a.hasTrapCheck(base, site)
		}

	case "Reflect.ownKeys":
		t := a.allocToken(site, tokObject)
		a.s.addToken(a.protoVar(t), a.arrayProto)
		a.s.addToken(result, t)
		if base, ok := argOr(0); ok {
			traps := a.s.newVar()
			a.readAccessor(base, accName{kind: accKeysAny}, traps)
			a.onTokenCtx(traps, func(ft Token) {
				if a.tokens[ft].kind != tokFunction {
					return
				}
				a.cg.AddEdge(site, a.tokens[ft].fn.Loc)
				fi := a.fnInfoFor(ft)
				a.s.addEdge(fi.out, result)
			})
		}

	case "Reflect.getPrototypeOf":
		if v, ok := argOr(0); ok {
			a.onTokenCtx(v, func(t Token) {
				a.s.addEdge(a.protoVar(t), result)
			})
		}

	default:
		// Other natives (Math.*, console.*, …): modeled as value-free.
	}
}

func argVarsTail(argVars []Var) []Var {
	if len(argVars) <= 1 {
		return nil
	}
	return argVars[1:]
}

// requireCall wires require() call sites to the exports of statically
// resolved modules, and — when module hints are enabled — to dynamically
// observed modules (the paper's module-load-hint extension).
func (a *analyzer) requireCall(site loc.Loc, result Var) {
	if lit, ok := a.requireLits[site]; ok {
		if path, err := modules.Resolve(a.project, a.siteModule[site], lit); err == nil {
			prev := a.pushCtx(RuleRequire, site, lit)
			a.linkRequire(site, result, path)
			a.popCtx(prev)
		}
		return
	}
	// Dynamically computed specifier. Recorded in every mode: this behavior
	// fires once per callee token, so an incremental resume needs the site
	// on record to retro-link module hints after the baseline fixpoint.
	if _, seen := a.dynRequires[site]; !seen && a.journal != nil {
		a.journal.dynRequires = append(a.journal.dynRequires, site)
	}
	a.dynRequires[site] = result
	if a.opts.Mode != Baseline && a.opts.Hints != nil {
		for _, mh := range a.opts.Hints.ModuleHints() {
			if mh.Site == site {
				prev := a.pushCtx(RuleModuleHint, site, mh.Path)
				a.linkRequire(site, result, mh.Path)
				a.popCtx(prev)
			}
		}
	}
}

// linkRequire wires one require() call site to the exports of a resolved
// module path. Idempotent: edges and tokens deduplicate in the solver and
// the call graph.
func (a *analyzer) linkRequire(site loc.Loc, result Var, path string) {
	if exp, ok := a.moduleExports[path]; ok {
		a.s.addEdge(exp, result)
		a.cg.AddEdge(site, callgraph.ModuleFunc(path))
		return
	}
	// External (mocked) built-in modules resolve to a native token so
	// the site counts as resolved.
	if strings.HasPrefix(path, "node:") {
		a.s.addToken(result, a.nativeToken("module:"+path))
	}
}
