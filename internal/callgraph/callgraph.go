// Package callgraph defines the call-graph representation shared by the
// static analysis and the dynamic call-graph recorder, and computes the
// accuracy metrics of the paper's evaluation (§5): call edges, reachable
// functions, resolved call sites, monomorphic call sites, call-edge-set
// recall, and per-call precision.
package callgraph

import (
	"fmt"
	"sort"

	"repro/internal/loc"
)

// FuncID identifies a function: the location of its definition, or a module
// function (the implicit function wrapping a module's top-level code),
// represented by the module path with line 0.
type FuncID = loc.Loc

// ModuleFunc returns the FuncID of the module function for a module path.
func ModuleFunc(path string) FuncID { return loc.Loc{File: path, Line: 0, Col: 0} }

// IsModuleFunc reports whether id denotes a module function.
func IsModuleFunc(id FuncID) bool { return id.Line == 0 }

// Graph is a call graph: call sites, their enclosing functions, and call
// edges from sites to functions. Call edges from different sites to the
// same function are distinct (paper §5: "call edges that originate from the
// different call sites within the same function are counted as distinct
// edges").
type Graph struct {
	// Sites maps every call site (call and new expressions) to the
	// function (or module function) whose body contains it.
	Sites map[loc.Loc]FuncID
	// Edges maps call sites to target functions.
	Edges map[loc.Loc]map[FuncID]bool
	// Funcs is the set of all known function definitions (module functions
	// included).
	Funcs map[FuncID]bool
	// NativeResolved marks call sites whose only callees are modeled
	// built-in (native) functions. Such sites count as resolved but
	// contribute no call edges, mirroring how the paper's analysis treats
	// standard-library callees.
	NativeResolved map[loc.Loc]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		Sites:          map[loc.Loc]FuncID{},
		Edges:          map[loc.Loc]map[FuncID]bool{},
		Funcs:          map[FuncID]bool{},
		NativeResolved: map[loc.Loc]bool{},
	}
}

// Clone returns a deep copy of the graph. The incremental static analysis
// uses it to snapshot the baseline call graph at the baseline fixpoint
// before hint deltas extend the same graph in place.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Sites:          make(map[loc.Loc]FuncID, len(g.Sites)),
		Edges:          make(map[loc.Loc]map[FuncID]bool, len(g.Edges)),
		Funcs:          make(map[FuncID]bool, len(g.Funcs)),
		NativeResolved: make(map[loc.Loc]bool, len(g.NativeResolved)),
	}
	for s, f := range g.Sites {
		c.Sites[s] = f
	}
	for s, set := range g.Edges {
		cs := make(map[FuncID]bool, len(set))
		for f := range set {
			cs[f] = true
		}
		c.Edges[s] = cs
	}
	for f := range g.Funcs {
		c.Funcs[f] = true
	}
	for s := range g.NativeResolved {
		c.NativeResolved[s] = true
	}
	return c
}

// Equal reports whether two graphs have identical sites, edges, functions,
// and native-resolved marks.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.Sites) != len(o.Sites) || len(g.Edges) != len(o.Edges) ||
		len(g.Funcs) != len(o.Funcs) || len(g.NativeResolved) != len(o.NativeResolved) {
		return false
	}
	for s, f := range g.Sites {
		if of, ok := o.Sites[s]; !ok || of != f {
			return false
		}
	}
	for s, set := range g.Edges {
		oset, ok := o.Edges[s]
		if !ok || len(oset) != len(set) {
			return false
		}
		for f := range set {
			if !oset[f] {
				return false
			}
		}
	}
	for f := range g.Funcs {
		if !o.Funcs[f] {
			return false
		}
	}
	for s := range g.NativeResolved {
		if !o.NativeResolved[s] {
			return false
		}
	}
	return true
}

// MarkNativeResolved records that site resolved to a modeled native.
func (g *Graph) MarkNativeResolved(site loc.Loc) { g.NativeResolved[site] = true }

// AddFunc registers a function definition.
func (g *Graph) AddFunc(f FuncID) { g.Funcs[f] = true }

// AddSite registers a call site contained in function encl.
func (g *Graph) AddSite(site loc.Loc, encl FuncID) { g.Sites[site] = encl }

// AddEdge adds a call edge. The site is registered if unknown (with an
// unknown enclosing function), so dynamic graphs can be built edge-first.
func (g *Graph) AddEdge(site loc.Loc, target FuncID) {
	set := g.Edges[site]
	if set == nil {
		set = map[FuncID]bool{}
		g.Edges[site] = set
	}
	set[target] = true
	g.Funcs[target] = true
}

// HasEdge reports whether the edge exists.
func (g *Graph) HasEdge(site loc.Loc, target FuncID) bool { return g.Edges[site][target] }

// NumEdges returns the number of distinct (site, target) call edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, set := range g.Edges {
		n += len(set)
	}
	return n
}

// NumSites returns the number of registered call sites.
func (g *Graph) NumSites() int { return len(g.Sites) }

// Targets returns the sorted targets of a call site.
func (g *Graph) Targets(site loc.Loc) []FuncID {
	set := g.Edges[site]
	out := make([]FuncID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// SortedSites returns all registered call sites in deterministic order.
func (g *Graph) SortedSites() []loc.Loc {
	out := make([]loc.Loc, 0, len(g.Sites))
	for s := range g.Sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Reachable computes the functions reachable from the given entry
// functions: an edge from a site contributes its targets once the site's
// enclosing function is reachable. Entries are included in the result.
func (g *Graph) Reachable(entries []FuncID) map[FuncID]bool {
	// Index sites by enclosing function.
	sitesOf := map[FuncID][]loc.Loc{}
	for site, encl := range g.Sites {
		sitesOf[encl] = append(sitesOf[encl], site)
	}
	reached := map[FuncID]bool{}
	var queue []FuncID
	push := func(f FuncID) {
		if !reached[f] {
			reached[f] = true
			queue = append(queue, f)
		}
	}
	for _, e := range entries {
		push(e)
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, site := range sitesOf[f] {
			for target := range g.Edges[site] {
				push(target)
			}
		}
	}
	return reached
}

// ResolvedSites returns the number of call sites with at least one edge or
// a modeled native callee.
func (g *Graph) ResolvedSites() int {
	n := 0
	for site := range g.Sites {
		if len(g.Edges[site]) > 0 || g.NativeResolved[site] {
			n++
		}
	}
	return n
}

// MonomorphicSites returns the number of call sites with at most one edge
// (paper §5: monomorphy as a precision proxy).
func (g *Graph) MonomorphicSites() int {
	n := 0
	for site := range g.Sites {
		if len(g.Edges[site]) <= 1 {
			n++
		}
	}
	return n
}

// Metrics summarizes a static call graph per the paper's first four
// metrics.
type Metrics struct {
	CallEdges          int
	ReachableFunctions int
	ResolvedPct        float64 // % of call sites with ≥1 edge
	MonomorphicPct     float64 // % of call sites with ≤1 edge
}

// ComputeMetrics evaluates the §5 metrics with reachability from entries.
func (g *Graph) ComputeMetrics(entries []FuncID) Metrics {
	m := Metrics{CallEdges: g.NumEdges()}
	reach := g.Reachable(entries)
	for f := range reach {
		if !IsModuleFunc(f) {
			m.ReachableFunctions++
		}
	}
	if n := g.NumSites(); n > 0 {
		m.ResolvedPct = 100 * float64(g.ResolvedSites()) / float64(n)
		m.MonomorphicPct = 100 * float64(g.MonomorphicSites()) / float64(n)
	}
	return m
}

func (m Metrics) String() string {
	return fmt.Sprintf("edges=%d reachable=%d resolved=%.1f%% monomorphic=%.1f%%",
		m.CallEdges, m.ReachableFunctions, m.ResolvedPct, m.MonomorphicPct)
}

// Accuracy holds recall/precision of a static graph against a dynamic one
// (paper Table 2).
type Accuracy struct {
	Recall    float64 // % of dynamic edges present in the static graph
	Precision float64 // average per-call precision
	DynEdges  int     // size of the dynamic edge set
}

// CompareWithDynamic computes call-edge-set recall and per-call precision
// of static graph g against dynamic graph dyn, following the definitions in
// §5:
//
//   - recall: percentage of call edges in the dynamic call graph that are
//     also in the static call graph [Chakraborty et al. 2022];
//   - per-call precision: for each call site that appears in the dynamic
//     call graph, the percentage of the static targets that are also
//     dynamic targets, averaged over those sites.
func CompareWithDynamic(g, dyn *Graph) Accuracy {
	var acc Accuracy
	matched := 0
	for site, dynTargets := range dyn.Edges {
		for target := range dynTargets {
			acc.DynEdges++
			if g.HasEdge(site, target) {
				matched++
			}
		}
	}
	if acc.DynEdges > 0 {
		acc.Recall = 100 * float64(matched) / float64(acc.DynEdges)
	}
	sites := 0
	sum := 0.0
	for site, dynTargets := range dyn.Edges {
		statTargets := g.Edges[site]
		if len(statTargets) == 0 {
			continue
		}
		inDyn := 0
		for t := range statTargets {
			if dynTargets[t] {
				inDyn++
			}
		}
		sum += float64(inDyn) / float64(len(statTargets))
		sites++
	}
	if sites > 0 {
		acc.Precision = 100 * sum / float64(sites)
	}
	return acc
}
