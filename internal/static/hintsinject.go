package static

import (
	"repro/internal/hints"
	"repro/internal/loc"
)

// UnknownArgHintsApply reports whether Options.UnknownArgHints would inject
// any constraint for h: some observed property-name read site must lack ℋ_R
// entries (the extension applies "only when no hints would otherwise be
// produced"). When false, the unknown-arg variant solves the identical
// constraint system as the plain one, so its results can be reused without
// re-solving. Conservative: may report true for sites constraint generation
// never saw (the variant then solves and changes nothing).
func UnknownArgHintsApply(h *hints.Hints) bool {
	if h == nil {
		return false
	}
	for _, site := range h.PropReadSites() {
		if len(h.Reads[site]) == 0 && len(h.PropReadNames(site)) > 0 {
			return true
		}
	}
	return false
}

// EvalHintsApply reports whether Options.EvalHints would add any code for
// h. When false, the eval-code variant is the identical constraint system
// as the plain one.
func EvalHintsApply(h *hints.Hints) bool {
	return h != nil && len(h.EvalHints()) > 0
}

// WriteHintsApply reports whether h carries any [DPW] write hints. When
// false, WithHints and AblationNameOnly inject identical constraints (the
// two modes differ only in how write hints are consumed), so the §4
// ablation arms coincide and one solve serves both.
func WriteHintsApply(h *hints.Hints) bool {
	return h != nil && len(h.WriteHints()) > 0
}

// injectHints adds the hint-derived constraints of §4:
//
//	[DPR]  ∀ℓ′ ∈ ℋ_R(ℓ):        t_ℓ′ ∈ ⟦E[E′]_ℓ⟧
//	[DPW]  ∀(ℓ, p, ℓ″) ∈ ℋ_W:   t_ℓ″ ∈ ⟦t_ℓ.p⟧
//
// In AblationNameOnly mode, [DPW] is replaced by the §4 strawman: the write
// is treated as a set of static property writes of the observed names,
// losing the relational base/value pairing.
func (a *analyzer) injectHints() {
	if a.opts.Mode == Baseline || a.opts.Hints == nil {
		return
	}
	h := a.opts.Hints

	// [DPR]: read hints inject allocation-site tokens directly into the
	// result variable of the dynamic read operation.
	if !a.opts.DisableDPR {
		for _, site := range h.ReadSites() {
			v, ok := a.dynReads[site]
			if !ok {
				continue // read happened in code we do not analyze (eval)
			}
			for _, valueSite := range h.ReadValues(site) {
				if t, ok := a.hintSiteToken(valueSite); ok {
					prev := a.pushCtx(RuleDPR, site, valueSite.String())
					a.s.addToken(v, t)
					a.popCtx(prev)
				}
			}
		}
	}

	// §6 extension: property-name hints for reads on p*, applied only
	// where no ℋ_R entry exists.
	if a.opts.UnknownArgHints {
		for _, site := range h.PropReadSites() {
			if len(h.Reads[site]) > 0 {
				continue
			}
			base, okBase := a.dynReadBases[site]
			dst, okDst := a.dynReads[site]
			if !okBase || !okDst {
				continue
			}
			for _, name := range h.PropReadNames(site) {
				prev := a.pushCtx(RuleUnknownArg, site, name)
				a.addLoad(base, name, dst)
				a.popCtx(prev)
			}
		}
	}

	switch a.opts.Mode {
	case WithHints:
		// [DPW]: relational injection, independent of the write operation's
		// location ("it does not matter where the write operations have
		// occurred, but only which objects … and property names were
		// involved").
		for _, w := range h.WriteHints() {
			target, ok1 := a.hintSiteToken(w.Target)
			val, ok2 := a.hintSiteToken(w.Value)
			if !ok1 || !ok2 {
				continue
			}
			prev := a.pushCtx(RuleDPW, w.Site, w.Prop)
			a.s.addToken(a.propVar(target, w.Prop), val)
			a.popCtx(prev)
		}

	case AblationNameOnly:
		a.injectNameOnly(h)
	}
}

// injectNameOnly implements the §4 strawman for comparison: "record only
// the property names … and then add subset relations instead of injecting
// abstract values", i.e. treat a dynamic write with observed names
// p1…pn as the static writes E.p1 = E″ ∧ … ∧ E.pn = E″. This allows
// dataflow from all abstract values of E″ to each observed property of all
// abstract values of E — the cross-product precision loss the relational
// hints avoid.
func (a *analyzer) injectNameOnly(h *hints.Hints) {
	// Group observed names by write-operation site.
	namesAt := map[loc.Loc]map[string]bool{}
	var looseHints []hints.WriteHint // hints without a usable operation site
	for _, w := range h.WriteHints() {
		if _, ok := a.dynWrites[w.Site]; ok {
			set := namesAt[w.Site]
			if set == nil {
				set = map[string]bool{}
				namesAt[w.Site] = set
			}
			set[w.Prop] = true
			continue
		}
		looseHints = append(looseHints, w)
	}
	for site, names := range namesAt {
		dw := a.dynWrites[site]
		for name := range names {
			prev := a.pushCtx(RuleDPW, site, name)
			a.addStore(dw.base, name, dw.value)
			a.popCtx(prev)
		}
	}
	// Hints from native-mediated writes (defineProperty/assign) have no
	// syntactic dynamic-write node; approximate the strawman by crossing
	// the observed (target × prop × value) sets per operation site.
	byPseudoSite := map[loc.Loc][]hints.WriteHint{}
	for _, w := range looseHints {
		byPseudoSite[w.Site] = append(byPseudoSite[w.Site], w)
	}
	for _, group := range byPseudoSite {
		var targets, values []Token
		props := map[string]bool{}
		seenT := map[Token]bool{}
		seenV := map[Token]bool{}
		for _, w := range group {
			if t, ok := a.hintSiteToken(w.Target); ok && !seenT[t] {
				seenT[t] = true
				targets = append(targets, t)
			}
			if v, ok := a.hintSiteToken(w.Value); ok && !seenV[v] {
				seenV[v] = true
				values = append(values, v)
			}
			props[w.Prop] = true
		}
		for _, t := range targets {
			for p := range props {
				for _, v := range values {
					a.s.addToken(a.propVar(t, p), v)
				}
			}
		}
	}
	// Read hints are injected identically in both modes (handled by the
	// caller).
}
