// Package value defines the runtime value model of the JavaScript subset:
// primitives, objects with prototype chains and property descriptors,
// arrays, functions (closures and natives), regular expressions, and the
// special proxy value p* used by approximate interpretation to stand for
// unknown values.
package value

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/loc"
)

// Value is a JavaScript runtime value.
type Value interface {
	Type() string // result of the typeof operator
}

// Undefined is the undefined value.
type Undefined struct{}

// Null is the null value.
type Null struct{}

// Bool is a boolean value.
type Bool bool

// Number is a numeric value (float64, as in JavaScript).
type Number float64

// String is a string value.
type String string

// Type implements Value.
func (Undefined) Type() string { return "undefined" }

// Type implements Value.
func (Null) Type() string { return "object" }

// Type implements Value.
func (Bool) Type() string { return "boolean" }

// Type implements Value.
func (Number) Type() string { return "number" }

// Type implements Value.
func (String) Type() string { return "string" }

// Type implements Value.
func (o *Object) Type() string {
	if o.Callable() {
		return "function"
	}
	return "object"
}

// Class names for the object kinds this runtime distinguishes.
const (
	ClassObject   = "Object"
	ClassArray    = "Array"
	ClassFunction = "Function"
	ClassError    = "Error"
	ClassRegExp   = "RegExp"
	ClassProxy    = "Proxy" // the approximate interpreter's p*
)

// Prop is a property slot: either a data property (Value) or an accessor
// (Getter/Setter).
type Prop struct {
	Value      Value
	Getter     *Object
	Setter     *Object
	Enumerable bool
	Writable   bool
}

// IsAccessor reports whether the slot is an accessor property.
func (p *Prop) IsAccessor() bool { return p.Getter != nil || p.Setter != nil }

// Object is a JavaScript object: a mutable dictionary with a prototype
// link. Functions, arrays, errors, regexps, and the proxy value are all
// Objects distinguished by Class.
type Object struct {
	Class string
	Proto *Object

	props map[string]*Prop // nil until the first property is written
	keys  []string         // insertion order of props

	// Elems is the element storage for Class == ClassArray.
	Elems []Value

	// Fn is non-nil for function objects.
	Fn *FuncData

	// Regex is non-nil for ClassRegExp objects.
	Regex      *regexp.Regexp
	RegexSrc   string
	RegexFlags string

	// Alloc is the allocation site (loc in the paper). Invalid for objects
	// created by code whose locations are meaningless (eval) or by skipped
	// operations.
	Alloc loc.Loc

	// ProxyTarget, for proxy-wrapped receivers (see the paper's static
	// property write rule), delegates absent-property reads to the global
	// proxy. Nil for ordinary objects.
	ProxyTarget *Object

	// HostData carries engine-internal state for builtin object kinds
	// (Map/Set entries, Promise state, …).
	HostData any
}

// FuncData carries the callable state of a function object.
type FuncData struct {
	Name   string
	Decl   *ast.FuncLit // nil for natives and bound functions
	Env    *Scope       // closure environment; nil for natives
	Native NativeFunc   // non-nil for natives
	Module string       // module path in which the definition was evaluated

	// Bound function state (Function.prototype.bind).
	BoundTarget *Object
	BoundThis   Value
	BoundArgs   []Value

	// ArrowThis is set for arrow functions, which capture this lexically.
	ArrowThis Value
	IsArrow   bool
}

// Host is the set of engine operations available to native functions. The
// interpreter implements it; defining it here breaks the package cycle
// between the value model and the evaluator.
type Host interface {
	// CallFunction invokes fn with the given receiver and arguments.
	CallFunction(fn *Object, this Value, args []Value) (Value, error)
	// NewError creates an error object of the given name ("TypeError", …).
	NewError(name, msg string) *Object
	// ThrowError creates and throws an error (returns the throw as a Go error).
	ThrowError(name, msg string) error
	// Global returns the global object.
	Global() *Object
	// EvalSource parses and runs source code in the current module context
	// (the implementation behind eval and the Function constructor).
	EvalSource(src string) (Value, error)
}

// NativeFunc is the Go implementation of a built-in function.
type NativeFunc func(h Host, this Value, args []Value) (Value, error)

// NewObject returns a plain object with the given prototype.
func NewObject(proto *Object) *Object {
	return &Object{Class: ClassObject, Proto: proto}
}

// NewArray returns an array object with the given elements and prototype.
func NewArray(proto *Object, elems []Value) *Object {
	return &Object{Class: ClassArray, Proto: proto, Elems: elems}
}

// NewFunction returns a function object for fn with the given prototype.
func NewFunction(proto *Object, fn *FuncData) *Object {
	return &Object{Class: ClassFunction, Proto: proto, Fn: fn}
}

// NewNative returns a native function object.
func NewNative(proto *Object, name string, fn NativeFunc) *Object {
	return NewFunction(proto, &FuncData{Name: name, Native: fn})
}

// Callable reports whether o can be invoked.
func (o *Object) Callable() bool { return o != nil && o.Fn != nil }

// IsProxy reports whether o is the approximate interpreter's proxy value
// p* (or a wrapper that delegates to it).
func (o *Object) IsProxy() bool { return o != nil && o.Class == ClassProxy }

// --------------------------------------------------------------- properties

// normIndex converts an array index key to an int, returning ok=false for
// non-index keys.
func normIndex(key string) (int, bool) {
	if key == "" {
		return 0, false
	}
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(key)
	if err != nil {
		return 0, false
	}
	return n, true
}

// GetOwn returns the own property slot for key, or nil.
func (o *Object) GetOwn(key string) *Prop {
	if o.Class == ClassArray {
		if key == "length" {
			return &Prop{Value: Number(len(o.Elems)), Writable: true}
		}
		if i, ok := normIndex(key); ok {
			if i < len(o.Elems) {
				v := o.Elems[i]
				if v == nil {
					v = Undefined{}
				}
				return &Prop{Value: v, Enumerable: true, Writable: true}
			}
			return nil
		}
	}
	return o.props[key]
}

// Lookup finds the property slot for key along the prototype chain,
// returning the slot and the object that owns it (nil, nil if absent).
func (o *Object) Lookup(key string) (*Prop, *Object) {
	for cur := o; cur != nil; cur = cur.Proto {
		if p := cur.GetOwn(key); p != nil {
			return p, cur
		}
	}
	return nil, nil
}

// Has reports whether key is present on o or its prototype chain.
func (o *Object) Has(key string) bool {
	p, _ := o.Lookup(key)
	return p != nil
}

// HasOwn reports whether key is an own property of o.
func (o *Object) HasOwn(key string) bool { return o.GetOwn(key) != nil }

// Set assigns a data property, creating it as enumerable and writable if
// absent. Array index and length keys update element storage.
func (o *Object) Set(key string, v Value) {
	if o.Class == ClassArray {
		if key == "length" {
			if n, ok := toLength(v); ok {
				o.setLength(n)
				return
			}
		}
		if i, ok := normIndex(key); ok {
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, Undefined{})
			}
			o.Elems[i] = v
			return
		}
	}
	if p, found := o.props[key]; found {
		if !p.IsAccessor() {
			p.Value = v
			return
		}
		// Accessor without setter: silently ignored (non-strict semantics);
		// the evaluator handles setter invocation before calling Set.
		return
	}
	if o.props == nil {
		o.props = map[string]*Prop{}
	}
	o.props[key] = &Prop{Value: v, Enumerable: true, Writable: true}
	o.keys = append(o.keys, key)
}

// DefineProp installs a property slot verbatim (Object.defineProperty).
func (o *Object) DefineProp(key string, p *Prop) {
	if o.Class == ClassArray {
		if i, ok := normIndex(key); ok && !p.IsAccessor() {
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, Undefined{})
			}
			o.Elems[i] = p.Value
			return
		}
	}
	if o.props == nil {
		o.props = map[string]*Prop{}
	}
	if _, found := o.props[key]; !found {
		o.keys = append(o.keys, key)
	}
	o.props[key] = p
}

// Delete removes an own property, reporting whether anything was removed.
func (o *Object) Delete(key string) bool {
	if o.Class == ClassArray {
		if i, ok := normIndex(key); ok && i < len(o.Elems) {
			o.Elems[i] = Undefined{}
			return true
		}
	}
	if _, found := o.props[key]; !found {
		return false
	}
	delete(o.props, key)
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	return true
}

// OwnKeys returns the own enumerable-or-not property keys in insertion
// order; for arrays, index keys come first.
func (o *Object) OwnKeys() []string {
	var keys []string
	if o.Class == ClassArray {
		for i := range o.Elems {
			keys = append(keys, strconv.Itoa(i))
		}
	}
	keys = append(keys, o.keys...)
	return keys
}

// EnumerableKeys returns the own enumerable property keys in iteration
// order (for-in and Object.keys).
func (o *Object) EnumerableKeys() []string {
	var keys []string
	if o.Class == ClassArray {
		for i := range o.Elems {
			keys = append(keys, strconv.Itoa(i))
		}
	}
	for _, k := range o.keys {
		if p := o.props[k]; p != nil && p.Enumerable {
			keys = append(keys, k)
		}
	}
	return keys
}

func (o *Object) setLength(n int) {
	switch {
	case n < len(o.Elems):
		o.Elems = o.Elems[:n]
	default:
		for len(o.Elems) < n {
			o.Elems = append(o.Elems, Undefined{})
		}
	}
}

func toLength(v Value) (int, bool) {
	n, ok := v.(Number)
	if !ok || float64(n) < 0 || float64(n) != float64(int(n)) {
		return 0, false
	}
	return int(n), true
}

// -------------------------------------------------------------- conversions

// ToBool converts a value to a boolean per JavaScript truthiness.
func ToBool(v Value) bool {
	switch v := v.(type) {
	case Undefined, Null:
		return false
	case Bool:
		return bool(v)
	case Number:
		return v != 0 && v == v // false for 0 and NaN
	case String:
		return v != ""
	case *Object:
		return true
	}
	return false
}

// ToNumber converts a value to a number per (simplified) JavaScript rules.
// Objects convert via their string representation; NaN on failure.
func ToNumber(v Value) float64 {
	switch v := v.(type) {
	case Undefined:
		return nan()
	case Null:
		return 0
	case Bool:
		if v {
			return 1
		}
		return 0
	case Number:
		return float64(v)
	case String:
		s := strings.TrimSpace(string(v))
		if s == "" {
			return 0
		}
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return n
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			if n, err := strconv.ParseUint(s[2:], 16, 64); err == nil {
				return float64(n)
			}
		}
		return nan()
	case *Object:
		if v.Class == ClassArray {
			if len(v.Elems) == 0 {
				return 0
			}
			if len(v.Elems) == 1 {
				return ToNumber(v.Elems[0])
			}
		}
		return nan()
	}
	return nan()
}

func nan() float64 { return math.NaN() }

// ToString converts a value to a string per (simplified) JavaScript rules.
func ToString(v Value) string {
	switch v := v.(type) {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Bool:
		if v {
			return "true"
		}
		return "false"
	case Number:
		return FormatNumber(float64(v))
	case String:
		return string(v)
	case *Object:
		switch {
		case v.IsProxy():
			return "[proxy]"
		case v.Callable():
			name := v.Fn.Name
			if name == "" {
				name = "anonymous"
			}
			return "function " + name + "() { [native or user code] }"
		case v.Class == ClassArray:
			parts := make([]string, len(v.Elems))
			for i, e := range v.Elems {
				if e == nil {
					e = Undefined{}
				}
				if _, isU := e.(Undefined); isU {
					parts[i] = ""
				} else if _, isN := e.(Null); isN {
					parts[i] = ""
				} else {
					parts[i] = ToString(e)
				}
			}
			return strings.Join(parts, ",")
		case v.Class == ClassRegExp:
			return "/" + v.RegexSrc + "/" + v.RegexFlags
		case v.Class == ClassError:
			name, msg := "Error", ""
			if p := v.GetOwn("name"); p != nil && !p.IsAccessor() {
				name = ToString(p.Value)
			}
			if p := v.GetOwn("message"); p != nil && !p.IsAccessor() {
				msg = ToString(p.Value)
			}
			if msg == "" {
				return name
			}
			return name + ": " + msg
		default:
			return "[object Object]"
		}
	}
	return "undefined"
}

// FormatNumber renders a float64 the way JavaScript's ToString does for the
// common cases (integers without decimal point, NaN, Infinity).
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == float64(int64(f)) && f >= -1e15 && f <= 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	switch a := a.(type) {
	case Undefined:
		_, ok := b.(Undefined)
		return ok
	case Null:
		_, ok := b.(Null)
		return ok
	case Bool:
		bb, ok := b.(Bool)
		return ok && a == bb
	case Number:
		bn, ok := b.(Number)
		return ok && float64(a) == float64(bn)
	case String:
		bs, ok := b.(String)
		return ok && a == bs
	case *Object:
		bo, ok := b.(*Object)
		return ok && a == bo
	}
	return false
}

// LooseEquals implements == for the supported subset: same-type comparisons
// defer to ===; null == undefined; number/string/bool comparisons coerce to
// number; object-to-primitive comparisons coerce arrays via ToString.
func LooseEquals(a, b Value) bool {
	if sameType(a, b) {
		return StrictEquals(a, b)
	}
	_, aU := a.(Undefined)
	_, aN := a.(Null)
	_, bU := b.(Undefined)
	_, bN := b.(Null)
	if (aU || aN) && (bU || bN) {
		return true
	}
	if aU || aN || bU || bN {
		return false
	}
	ao, aIsObj := a.(*Object)
	bo, bIsObj := b.(*Object)
	switch {
	case aIsObj && !bIsObj:
		return LooseEquals(objToPrimitive(ao), b)
	case bIsObj && !aIsObj:
		return LooseEquals(a, objToPrimitive(bo))
	}
	return ToNumber(a) == ToNumber(b)
}

func objToPrimitive(o *Object) Value { return String(ToString(o)) }

func sameType(a, b Value) bool {
	switch a.(type) {
	case Undefined:
		_, ok := b.(Undefined)
		return ok
	case Null:
		_, ok := b.(Null)
		return ok
	case Bool:
		_, ok := b.(Bool)
		return ok
	case Number:
		_, ok := b.(Number)
		return ok
	case String:
		_, ok := b.(String)
		return ok
	case *Object:
		_, ok := b.(*Object)
		return ok
	}
	return false
}

// PropertyKey converts a value used in a computed property access to the
// property name string.
func PropertyKey(v Value) string { return ToString(v) }

// Inspect renders a value for console output: strings unquoted at top
// level, arrays and objects with structure, depth-limited.
func Inspect(v Value) string { return inspect(v, 0, false) }

func inspect(v Value, depth int, quote bool) string {
	if depth > 3 {
		return "…"
	}
	switch v := v.(type) {
	case String:
		if quote {
			return "'" + string(v) + "'"
		}
		return string(v)
	case *Object:
		switch {
		case v.IsProxy():
			return "[proxy]"
		case v.Callable():
			if v.Fn.Name != "" {
				return "[Function: " + v.Fn.Name + "]"
			}
			return "[Function (anonymous)]"
		case v.Class == ClassArray:
			parts := make([]string, len(v.Elems))
			for i, e := range v.Elems {
				if e == nil {
					e = Undefined{}
				}
				parts[i] = inspect(e, depth+1, true)
			}
			return "[ " + strings.Join(parts, ", ") + " ]"
		case v.Class == ClassError:
			return ToString(v)
		case v.Class == ClassRegExp:
			return ToString(v)
		default:
			keys := v.EnumerableKeys()
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				p := v.GetOwn(k)
				if p == nil {
					continue
				}
				val := "…"
				if !p.IsAccessor() {
					val = inspect(p.Value, depth+1, true)
				} else {
					val = "[Getter/Setter]"
				}
				parts = append(parts, fmt.Sprintf("%s: %s", k, val))
			}
			return "{ " + strings.Join(parts, ", ") + " }"
		}
	default:
		return ToString(v)
	}
}

// ------------------------------------------------------------------- scopes

// Scope is a lexical environment: a chain of frames mapping names to
// shared value cells, so closures observe later mutations.
type Scope struct {
	vars   map[string]*Value // nil until the first Declare
	parent *Scope
}

// NewScope returns a child scope of parent (parent may be nil for the
// global scope).
func NewScope(parent *Scope) *Scope {
	return &Scope{parent: parent}
}

// Parent returns the enclosing scope (nil at the root).
func (s *Scope) Parent() *Scope { return s.parent }

// Declare introduces (or overwrites) name in this frame.
func (s *Scope) Declare(name string, v Value) {
	if cell, ok := s.vars[name]; ok {
		*cell = v
		return
	}
	if s.vars == nil {
		s.vars = map[string]*Value{}
	}
	cell := new(Value)
	*cell = v
	s.vars[name] = cell
}

// Cell returns the value cell for name, searching enclosing scopes.
func (s *Scope) Cell(name string) (*Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cell, ok := cur.vars[name]; ok {
			return cell, true
		}
	}
	return nil, false
}

// Get returns the value of name, searching enclosing scopes.
func (s *Scope) Get(name string) (Value, bool) {
	cell, ok := s.Cell(name)
	if !ok {
		return nil, false
	}
	return *cell, true
}

// SetExisting assigns to an existing binding, reporting whether one was
// found.
func (s *Scope) SetExisting(name string, v Value) bool {
	cell, ok := s.Cell(name)
	if !ok {
		return false
	}
	*cell = v
	return true
}

// HasLocal reports whether name is bound in this frame (not parents).
func (s *Scope) HasLocal(name string) bool {
	_, ok := s.vars[name]
	return ok
}

// Names returns the names bound in this frame, sorted.
func (s *Scope) Names() []string {
	out := make([]string, 0, len(s.vars))
	for k := range s.vars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
