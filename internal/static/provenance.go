package static

import (
	"fmt"
	"sort"

	"repro/internal/loc"
)

// Provenance mode: when Options.Provenance is set, every constraint the
// analyzer issues — subset edges via addEdge, direct token inserts via
// addToken — is journaled with the rule that issued it (rule id, operation
// site, and a short detail such as the property name or hint origin). The
// journal is keyed by the ORIGINAL pre-unification variable ids, so it is a
// faithful record of the reference (no-unify) constraint system even while
// the solver collapses cycles underneath; justification chains for
// delivered tokens are reconstructed offline by walking the journal
// backwards over the final solved sets instead of being traced per
// delivery, which keeps recording out of the propagation hot path and —
// because the set of trigger firings and the final token sets are
// schedule-independent — makes every provenance answer identical at every
// -solver-workers value.
//
// With provenance off the solver carries one nil pointer check per
// addToken/addEdge and nothing else: reports and effort counters are
// byte-identical to a run without this file.

// RuleID identifies the constraint rule that issued a journaled constraint.
type RuleID uint8

// Constraint rules, in journal order (RuleFlow is the ambient default).
const (
	RuleFlow       RuleID = iota // syntactic dataflow: assignments, returns, module wiring
	RuleLoad                     // property load (prototype chains included)
	RuleStore                    // property store
	RuleElemRead                 // computed-read element conflation ($elem)
	RuleCall                     // call wiring: args, this, return, new prototype
	RuleNative                   // modeled built-in behavior
	RuleRequire                  // statically resolved require() linking
	RuleModuleHint               // dynamic require linked via a module-load hint
	RuleDPR                      // [DPR] dynamic-property-read hint injection
	RuleDPW                      // [DPW] dynamic-property-write hint injection
	RuleUnknownArg               // §6 unknown-argument hint
	RuleEvalHint                 // §6 eval-generated code constraints
	RuleAccessor                 // accessor/Proxy-trap invocation ($get$/$set$/$getany/…)
)

func (r RuleID) String() string {
	switch r {
	case RuleFlow:
		return "flow"
	case RuleLoad:
		return "load"
	case RuleStore:
		return "store"
	case RuleElemRead:
		return "elem-read"
	case RuleCall:
		return "call"
	case RuleNative:
		return "native"
	case RuleRequire:
		return "require"
	case RuleModuleHint:
		return "module-hint"
	case RuleDPR:
		return "dpr-hint"
	case RuleDPW:
		return "dpw-hint"
	case RuleUnknownArg:
		return "unknown-arg-hint"
	case RuleEvalHint:
		return "eval-hint"
	case RuleAccessor:
		return "accessor"
	}
	return fmt.Sprintf("rule%d", int(r))
}

// provPriority orders rules for record merging and chain display: the most
// informative label wins when one constraint is derivable several ways.
// Hint rules outrank model rules, which outrank plain dataflow.
func provPriority(r RuleID) int {
	switch r {
	case RuleDPR, RuleDPW, RuleUnknownArg, RuleEvalHint, RuleModuleHint:
		return 0
	case RuleRequire, RuleNative, RuleElemRead, RuleAccessor:
		return 1
	case RuleLoad, RuleStore, RuleCall:
		return 2
	default:
		return 3
	}
}

// provRecord is one journal entry: the rule, its operation site (zero when
// the rule has no single source position), and a short detail (property
// name, native behavior, hint origin).
type provRecord struct {
	rule   RuleID
	site   loc.Loc
	detail string
}

func (r provRecord) String() string {
	s := r.rule.String()
	if r.detail != "" {
		s += "(" + r.detail + ")"
	}
	if r.site.File != "" {
		s += "@" + r.site.String()
	}
	return s
}

// provRecLess is the deterministic merge/display order over records.
func provRecLess(a, b provRecord) bool {
	if pa, pb := provPriority(a.rule), provPriority(b.rule); pa != pb {
		return pa < pb
	}
	if a.rule != b.rule {
		return a.rule < b.rule
	}
	if a.site != b.site {
		return a.site.Before(b.site)
	}
	return a.detail < b.detail
}

type provEdgeKey struct{ from, to Var }

type provInsertKey struct {
	v Var
	t Token
}

// provJournal is the solver-side record store. cur is the ambient rule
// context; the analyzer sets it at semantic boundaries and captures it into
// trigger closures at registration time (see analyzer.onTokenCtx), so every
// journaled constraint carries the rule that semantically issued it no
// matter which engine or schedule fires the trigger.
type provJournal struct {
	cur     provRecord
	edges   map[provEdgeKey]provRecord
	inserts map[provInsertKey]provRecord
}

func newProvJournal() *provJournal {
	return &provJournal{
		edges:   map[provEdgeKey]provRecord{},
		inserts: map[provInsertKey]provRecord{},
	}
}

// noteEdge journals ⟦from⟧ ⊆ ⟦to⟧ under the ambient rule. Offers merge by
// provRecLess, so the stored record is independent of offer order (trigger
// schedules differ between engines; the offer set does not).
func (j *provJournal) noteEdge(from, to Var) {
	k := provEdgeKey{from, to}
	if old, ok := j.edges[k]; !ok || provRecLess(j.cur, old) {
		j.edges[k] = j.cur
	}
}

// noteInsert journals t ∈ ⟦v⟧ under the ambient rule.
func (j *provJournal) noteInsert(v Var, t Token) {
	k := provInsertKey{v, t}
	if old, ok := j.inserts[k]; !ok || provRecLess(j.cur, old) {
		j.inserts[k] = j.cur
	}
}

// ------------------------------------------------------------ analyzer side

// ctx sets the ambient rule context. No-op with provenance off.
func (a *analyzer) ctx(rule RuleID, site loc.Loc) {
	if j := a.s.prov; j != nil {
		j.cur = provRecord{rule: rule, site: site}
	}
}

// ctxd is ctx with a detail string.
func (a *analyzer) ctxd(rule RuleID, site loc.Loc, detail string) {
	if j := a.s.prov; j != nil {
		j.cur = provRecord{rule: rule, site: site, detail: detail}
	}
}

// pushCtx sets the ambient context and returns the previous one for popCtx,
// so helpers can scope their rule label without leaking it to the caller's
// remaining constraints.
func (a *analyzer) pushCtx(rule RuleID, site loc.Loc, detail string) provRecord {
	j := a.s.prov
	if j == nil {
		return provRecord{}
	}
	prev := j.cur
	j.cur = provRecord{rule: rule, site: site, detail: detail}
	return prev
}

func (a *analyzer) popCtx(prev provRecord) {
	if j := a.s.prov; j != nil {
		j.cur = prev
	}
}

// onTokenCtx registers a trigger that fires under the rule context that was
// ambient at registration time. This is the linchpin of provenance
// determinism: a trigger may fire in an epoch's serial tail, during a merge,
// or synchronously while the registration replays already-delivered tokens — the journaled context is the registration-time
// one in every case, and the previous ambient context is restored afterwards
// so a synchronous replay cannot bleed its label into the caller's remaining
// constraints. With provenance off this is exactly solver.onToken.
func (a *analyzer) onTokenCtx(v Var, fn func(Token)) {
	j := a.s.prov
	if j == nil {
		a.s.onToken(v, fn)
		return
	}
	saved := j.cur
	a.s.onToken(v, func(t Token) {
		prev := j.cur
		j.cur = saved
		fn(t)
		j.cur = prev
	})
}

// provCallSite is the per-call-site record the attributor starts from.
type provCallSite struct {
	kind    string // "direct" | "member" | "computed"
	prop    string // member property name (kind == "member")
	callee  Var
	recv    Var
	hasRecv bool
	args    []Var
}

// ------------------------------------------------------------ query surface

// CallSiteProv describes one call site for root-cause attribution.
type CallSiteProv struct {
	// Kind is how the callee is named: "direct" (identifier or expression),
	// "member" (o.m(...)), or "computed" (o[k](...)).
	Kind string
	// Prop is the member property name when Kind == "member".
	Prop string
	// Module is the path of the module containing the site.
	Module string
	// Callee, Recv, and Args are opaque constraint-variable handles for the
	// frontier queries below.
	Callee  Var
	Recv    Var
	HasRecv bool
	Args    []Var
}

// TokenDesc is a stable, engine-independent description of an abstract
// value: function and object tokens render as kind@allocsite, natives and
// modules by name/path.
type TokenDesc struct {
	Kind string  // "fn" | "obj" | "proto" | "native" | "module" | "exports"
	Site loc.Loc // allocation site (fn/obj/proto)
	Name string  // native behavior name or module path
}

func (d TokenDesc) String() string {
	if d.Name != "" {
		return d.Kind + ":" + d.Name
	}
	return d.Kind + "@" + d.Site.String()
}

// Provenance is the query surface attached to a Result when
// Options.Provenance is set. It retains the solved constraint system, so it
// should be requested only when attribution is wanted.
type Provenance struct {
	a *analyzer

	inEdges     map[Var][]Var // reverse adjacency over journaled edges
	sites       map[loc.Loc]provCallSite
	readVarSite map[Var]loc.Loc   // dynamic-read result var → site
	fnTokens    map[loc.Loc]Token // function definition site → token
}

// newProvenance freezes the query indexes after the final fixpoint.
func newProvenance(a *analyzer) *Provenance {
	p := &Provenance{
		a:           a,
		inEdges:     map[Var][]Var{},
		sites:       a.provSites,
		readVarSite: map[Var]loc.Loc{},
		fnTokens:    map[loc.Loc]Token{},
	}
	for k := range a.s.prov.edges {
		p.inEdges[k.to] = append(p.inEdges[k.to], k.from)
	}
	for site, v := range a.dynReads {
		p.readVarSite[v] = site
	}
	for t, info := range a.tokens {
		if info.kind == tokFunction {
			p.fnTokens[info.fn.Loc] = Token(t)
		}
	}
	return p
}

// CallSite returns the attribution record for a call site.
func (p *Provenance) CallSite(site loc.Loc) (CallSiteProv, bool) {
	cs, ok := p.sites[site]
	if !ok {
		return CallSiteProv{}, false
	}
	return CallSiteProv{
		Kind: cs.kind, Prop: cs.prop, Module: p.a.siteModule[site],
		Callee: cs.callee, Recv: cs.recv, HasRecv: cs.hasRecv, Args: cs.args,
	}, true
}

// FuncToken resolves a function definition site to its token.
func (p *Provenance) FuncToken(fn loc.Loc) (Token, bool) {
	t, ok := p.fnTokens[fn]
	return t, ok
}

// HasToken reports whether the solved set of v contains t.
func (p *Provenance) HasToken(v Var, t Token) bool {
	return p.a.s.state(p.a.s.find(v)).hasToken(t)
}

// Tokens returns the solved set of v as sorted stable descriptions.
func (p *Provenance) Tokens(v Var) []TokenDesc {
	st := p.a.s.state(p.a.s.find(v))
	out := make([]TokenDesc, 0, len(st.tokens))
	for _, t := range st.tokens {
		out = append(out, p.describe(t))
	}
	sortTokenDescs(out)
	return out
}

func sortTokenDescs(ds []TokenDesc) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].String() < ds[j].String() })
}

func (p *Provenance) describe(t Token) TokenDesc {
	info := p.a.tokens[t]
	switch info.kind {
	case tokFunction:
		return TokenDesc{Kind: "fn", Site: info.fn.Loc}
	case tokObject:
		return TokenDesc{Kind: "obj", Site: info.site}
	case tokProto:
		return TokenDesc{Kind: "proto", Site: info.site}
	case tokNative:
		return TokenDesc{Kind: "native", Name: info.name}
	case tokModule:
		return TokenDesc{Kind: "module", Name: info.path}
	case tokExports:
		return TokenDesc{Kind: "exports", Name: info.path}
	}
	return TokenDesc{Kind: "token"}
}

// RequireSite reports whether site is a require() call: lit is the literal
// specifier ("" when dynamically computed), isDyn whether the dynamic-
// specifier behavior fired there.
func (p *Provenance) RequireSite(site loc.Loc) (lit string, isDyn, isRequire bool) {
	if l, ok := p.a.requireLits[site]; ok {
		return l, false, true
	}
	if _, ok := p.a.dynRequires[site]; ok {
		return "", true, true
	}
	return "", false, false
}

// frontierDepth bounds the backward structure walks; real chains are short
// and the bound only guards degenerate constraint graphs.
const frontierDepth = 64

// ReadFrontier returns the dynamic-read sites backward-reachable from the
// given variables over journaled constraints — the [DPR] hint-injection
// points a missing flow would have had to enter through. Sorted; the walk
// is over the reference (original-id) graph, so the answer is identical at
// every worker count.
func (p *Provenance) ReadFrontier(roots []Var) []loc.Loc {
	seen := map[Var]bool{}
	found := map[loc.Loc]bool{}
	frontier := roots
	for depth := 0; depth < frontierDepth && len(frontier) > 0; depth++ {
		var next []Var
		for _, v := range frontier {
			if seen[v] {
				continue
			}
			seen[v] = true
			if site, ok := p.readVarSite[v]; ok {
				found[site] = true
			}
			next = append(next, p.inEdges[v]...)
		}
		frontier = next
	}
	return sortedLocs(found)
}

// WriteFrontier returns the dynamic-write sites whose base set intersects
// the receiver's value-or-prototype closure: the [DPW] hint-injection
// points through which a property of the receiver (or anything on its
// prototype chain) could have been installed. Sorted, engine-independent.
func (p *Provenance) WriteFrontier(recv Var) []loc.Loc {
	protos := p.protoClosure(recv)
	found := map[loc.Loc]bool{}
	for site, dw := range p.a.dynWrites {
		st := p.a.s.state(p.a.s.find(dw.base))
		for _, t := range st.tokens {
			if protos[t] {
				found[site] = true
				break
			}
		}
	}
	return sortedLocs(found)
}

// protoClosure collects ⟦recv⟧ plus everything reachable through internal
// prototype variables.
func (p *Provenance) protoClosure(recv Var) map[Token]bool {
	out := map[Token]bool{}
	var visit func(v Var, depth int)
	visit = func(v Var, depth int) {
		if depth > frontierDepth {
			return
		}
		st := p.a.s.state(p.a.s.find(v))
		for _, t := range st.tokens {
			if out[t] {
				continue
			}
			out[t] = true
			if pv, ok := p.a.protoVars[t]; ok {
				visit(pv, depth+1)
			}
		}
	}
	visit(recv, 0)
	return out
}

func sortedLocs(set map[loc.Loc]bool) []loc.Loc {
	out := make([]loc.Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Explain reconstructs the constraint-rule chain that justifies t ∈ ⟦v⟧,
// rendered outermost-first: the first entry is the rule that delivered the
// token into v's neighborhood, the last is the insert that introduced the
// token. The chain is computed by a backward breadth-first walk over the
// journal restricted to variables whose solved sets contain t (every such
// step is a real derivation step of the reference system), reporting the
// provRecLess-minimal record per level — a summary that depends only on
// the journal and the final sets, so it is identical at every worker
// count. Returns nil when t is not in ⟦v⟧.
func (p *Provenance) Explain(v Var, t Token) []string {
	if !p.HasToken(v, t) {
		return nil
	}
	var chain []string
	seen := map[Var]bool{v: true}
	level := []Var{v}
	for depth := 0; depth < frontierDepth; depth++ {
		// An insert record at this level terminates the chain.
		var best provRecord
		haveIns := false
		for _, u := range level {
			if rec, ok := p.a.s.prov.inserts[provInsertKey{u, t}]; ok {
				if !haveIns || provRecLess(rec, best) {
					best, haveIns = rec, true
				}
			}
		}
		if haveIns {
			chain = append(chain, best.String()+" ⊢ "+p.describe(t).String())
			return chain
		}
		// Otherwise step one level back over edges whose source also holds t.
		var next []Var
		var bestEdge provRecord
		haveEdge := false
		for _, u := range level {
			for _, from := range p.inEdges[u] {
				if seen[from] || !p.HasToken(from, t) {
					continue
				}
				seen[from] = true
				next = append(next, from)
				if rec, ok := p.a.s.prov.edges[provEdgeKey{from, u}]; ok {
					if !haveEdge || provRecLess(rec, bestEdge) {
						bestEdge, haveEdge = rec, true
					}
				}
			}
		}
		if !haveEdge {
			// Token reached v only through unification/merge shortcuts the
			// journal does not model as reference steps (rare; e.g. cycles
			// closed entirely inside one collapsed class).
			chain = append(chain, "…(merged) ⊢ "+p.describe(t).String())
			return chain
		}
		chain = append(chain, bestEdge.String())
		level = next
	}
	return append(chain, "…")
}

// NearestDelivered picks the "nearest delivered neighbor" of a missed edge
// at a call site: a function token that DID reach the callee variable,
// preferring ones defined in preferFile, and returns its description and
// justification chain. The choice is by sorted stable description, so it is
// engine-independent.
func (p *Provenance) NearestDelivered(v Var, preferFile string) (TokenDesc, []string, bool) {
	st := p.a.s.state(p.a.s.find(v))
	var cands []Token
	for _, t := range st.tokens {
		if p.a.tokens[t].kind == tokFunction {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		cands = append(cands, st.tokens...)
	}
	if len(cands) == 0 {
		return TokenDesc{}, nil, false
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := p.describe(cands[i]), p.describe(cands[j])
		if pi, pj := di.Site.File == preferFile, dj.Site.File == preferFile; pi != pj {
			return pi
		}
		return di.String() < dj.String()
	})
	best := cands[0]
	return p.describe(best), p.Explain(v, best), true
}

// Records returns the journal size (edges, inserts) — a cheap telemetry
// figure for the daemon's provenance endpoint.
func (p *Provenance) Records() (edges, inserts int) {
	return len(p.a.s.prov.edges), len(p.a.s.prov.inserts)
}
