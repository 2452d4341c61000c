// Package static implements the subset-based, flow-insensitive,
// context-insensitive points-to and call-graph analysis of the paper's §4,
// including the two hint-consuming constraint rules [DPR] and [DPW].
package static

import (
	"maps"
	"math"
	"slices"
	"time"
)

// Var is a constraint variable: an abstract set of tokens associated with
// an expression, a variable binding, a function parameter/return/this, or
// an object property.
type Var int32

// Token is an abstract value: an allocation site, a function definition, or
// a native (built-in) object/function.
type Token int32

// smallSetMax is the membership-test threshold: token and edge sets at or
// below this size use a linear scan over the dense slice (cache-friendly,
// no allocation); larger sets spill to a map. Most constraint variables in
// practice hold a handful of tokens, so the maps — previously allocated for
// every non-empty set — become rare. Condensed representatives concentrate
// tokens and edges, which makes the spill more common for them but leaves
// the vast majority of variables below the threshold; see
// BenchmarkMembershipThreshold in solver_bench_test.go for the measurement
// behind the value (8 and 16 are within noise of 12 on the propagation
// benchmarks; below 8 the corpus pipeline pays map allocations for the
// typical 10-element prototype-chain sets, above 16 wide sets pay linear
// rescans on every redundant delivery).
const smallSetMax = 12

// sccSweepInterval is the number of fixpoint iterations between periodic
// cycle sweeps (Tarjan SCC passes over the condensed constraint graph),
// the solver's only cycle detection after the solve-entry sweep. The
// interval is small because cycles in this analysis form late —
// call-processing triggers add the closing edges mid-solve — and a cycle
// only pays off while propagation through it is still happening:
// per-module solves run a few thousand iterations total, so an interval in
// the tens of thousands would never fire.
const sccSweepInterval = 1024

// sweepInterval is the iteration gap between periodic cycle sweeps: the
// fixed sccSweepInterval for corpus-sized graphs (nVars/4 does not exceed
// 1024 until ~4k variables, so every corpus project keeps the exact
// historical cadence), scaled linearly with graph size beyond that. The
// scaling dates from whole-graph sweeps; a sweep now visits only what the
// edges added since the previous one reach (see sweepRoots), and the
// cadence is kept because it decides when cycles collapse, and changing it
// would move the deterministic effort and Epochs counters.
func (s *solver) sweepInterval() int64 {
	if v := int64(s.nVars) / 4; v > sccSweepInterval {
		return v
	}
	return sccSweepInterval
}

// Var states live in fixed-size chunks so allocating a variable never
// moves existing states: a growing flat []varState spends most of newVar
// in memmove/memclr on large programs, and moving states would invalidate
// the *varState pointers the hot paths hold across trigger callbacks.
const (
	varChunkShift = 9 // 512 states per chunk
	varChunkSize  = 1 << varChunkShift
	varChunkMask  = varChunkSize - 1
)

// solver computes the least solution of subset constraints with support
// for complex constraints (callbacks triggered as tokens arrive), which may
// add further edges and constraints during solving.
//
// The solver collapses subset cycles online: when propagation discovers
// that a group of variables is mutually reachable (every member a subset of
// every other), the group is unified under one representative via a
// union-find layer, sharing a single token set and a deduplicated edge and
// trigger list. Members of a cycle provably have equal sets at the least
// fixpoint, so unification never changes the solution — it only stops each
// token from orbiting the cycle once per edge. Cycles are found by Tarjan
// sweeps, at every solve entry and every sweepInterval iterations: the
// first sweep covers the whole condensed graph; later ones start only from
// the targets of edges added since the previous sweep.
//
// Propagation runs on the epoch engine (parallel.go) in every mode. It does
// all merging between epochs, never inside one, so edge and trigger
// iteration state is never invalidated mid-delivery.
type solver struct {
	chunks [][]varState
	nVars  int
	// prov, when non-nil, journals every analyzer-issued constraint with
	// the ambient rule context (see provenance.go). Structural rewires —
	// cycle collapse, propagation — bypass addToken and addEdge,
	// so the journal stays a record of the reference constraint system
	// keyed by original variable ids. Nil (one pointer check per
	// constraint) unless Options.Provenance is set.
	prov *provJournal
	// parent is the union-find forest over variables; parent[v] == v marks
	// a representative. Paths are compressed on find.
	parent []Var
	// queue of pending (var, token) deliveries, drained whole by each
	// epoch's partition (its backing array is reused). Entries hold the
	// variable as it was addressed at append time; partition resolves them
	// through find, so deliveries addressed to since-merged members land on
	// their representative.
	queue []delivery
	// nextSweep is the iteration count at which the next periodic SCC
	// sweep runs.
	nextSweep int64
	// Cycle-sweep roots. A sweep leaves the representative graph acyclic,
	// so a cycle present later uses an edge u→w added since, and lies
	// entirely within what w reaches. addEdge records each such target
	// once: sweepMark (indexed by variable) guards sweepRoots, the list the
	// next sweep takes as its Tarjan roots. An empty list means no edge was
	// added and the sweep is skipped. Nothing is recorded until swept is
	// set by the solver's first sweep, which covers the whole graph, so
	// constraint generation pays no marking.
	swept      bool
	sweepRoots []Var
	sweepMark  []bool
	// par is the sharded epoch engine (parallel.go) that solve runs.
	par *parallelEngine
	// Reusable sweep scratch (Tarjan index/lowlink/stacks), kept across
	// sweeps to avoid re-allocating O(nVars) arrays every interval.
	sweep sweepScratch

	// perf counters: fixpoint iterations (queued deliveries processed) and
	// tokens delivered (insertion attempts on the hot path).
	iterations      int64
	tokensDelivered int64
	// Structure counters: cycle-collapse activity.
	cyclesCollapsed  int64 // unification events (one per collapsed group)
	varsUnified      int64 // members absorbed into a representative
	edgesDeduped     int64 // edges dropped as self or duplicate under condensation
	redundantSkipped int64 // deliveries short-circuited (token already processed by the representative, or self-edge after condensation)
}

type varState struct {
	// tokens is ⟦v⟧ in processing order: tokens[:delivered] have had their
	// queue entry processed (edges pushed, triggers fired), the rest are
	// pending. The prefix below delivered is immutable; pending tokens may
	// be swapped within the suffix when deliveries arrive out of append
	// order after a merge. A state merged away holds no tokens.
	tokens []Token
	// has is nil while len(tokens) <= smallSetMax; membership and position
	// lookups then are a linear scan of tokens. When spilled, it maps each
	// token to its current index in tokens (kept up to date across swaps).
	has map[Token]int32
	// delivered counts the prefix of tokens whose queue entry has been
	// processed; triggers registered later run immediately for that prefix
	// only, so each (trigger, token) pair fires exactly once.
	delivered int
	edges     []Var
	// edgeHas mirrors the spill rule of has for the edge set.
	edgeHas  map[Var]struct{}
	triggers []func(Token)
}

// indexOf returns the position of t in st.tokens, or -1.
func (st *varState) indexOf(t Token) int {
	if st.has != nil {
		if i, ok := st.has[t]; ok {
			return int(i)
		}
		return -1
	}
	for i, x := range st.tokens {
		if x == t {
			return i
		}
	}
	return -1
}

// hasToken reports whether t ∈ ⟦v⟧ for this state.
func (st *varState) hasToken(t Token) bool { return st.indexOf(t) >= 0 }

// hasEdge reports whether the edge to v is already present.
func (st *varState) hasEdge(v Var) bool {
	if st.edgeHas != nil {
		_, ok := st.edgeHas[v]
		return ok
	}
	for _, x := range st.edges {
		if x == v {
			return true
		}
	}
	return false
}

// appendToken appends t (known absent) and maintains the position index.
func (st *varState) appendToken(t Token) {
	if st.tokens == nil {
		st.tokens = make([]Token, 0, 4)
	}
	st.tokens = append(st.tokens, t)
	if st.has != nil {
		st.has[t] = int32(len(st.tokens) - 1)
	} else if len(st.tokens) > smallSetMax {
		st.has = make(map[Token]int32, 2*len(st.tokens))
		for i, x := range st.tokens {
			st.has[x] = int32(i)
		}
	}
}

// appendEdge appends the edge to w (known absent) and maintains the spill.
func (st *varState) appendEdge(w Var) {
	if st.edges == nil {
		st.edges = make([]Var, 0, 4)
	}
	st.edges = append(st.edges, w)
	if st.edgeHas != nil {
		st.edgeHas[w] = struct{}{}
	} else if len(st.edges) > smallSetMax {
		st.edgeHas = make(map[Var]struct{}, 2*len(st.edges))
		for _, x := range st.edges {
			st.edgeHas[x] = struct{}{}
		}
	}
}

type delivery struct {
	v Var
	t Token
}

// newSolver builds a solver on the epoch engine with one worker; see
// configureParallel for more.
func newSolver() *solver {
	return &solver{
		queue:     make([]delivery, 0, 1024),
		nextSweep: sccSweepInterval,
		par:       newParallelEngine(1),
	}
}

// state returns the stable address of v's state.
func (s *solver) state(v Var) *varState {
	return &s.chunks[v>>varChunkShift][v&varChunkMask]
}

// find returns v's representative, compressing the path.
func (s *solver) find(v Var) Var {
	r := v
	for s.parent[r] != r {
		r = s.parent[r]
	}
	for s.parent[v] != r {
		s.parent[v], v = r, s.parent[v]
	}
	return r
}

// newVar allocates a fresh constraint variable.
func (s *solver) newVar() Var {
	if s.nVars>>varChunkShift == len(s.chunks) {
		s.chunks = append(s.chunks, make([]varState, varChunkSize))
	}
	v := Var(s.nVars)
	s.nVars++
	s.parent = append(s.parent, v)
	return v
}

// addToken inserts token t into ⟦v⟧ (and schedules propagation).
func (s *solver) addToken(v Var, t Token) {
	if s.prov != nil {
		s.prov.noteInsert(v, t)
	}
	s.addTokenRep(s.find(v), t)
}

// addTokenRep is addToken for an already-resolved representative.
func (s *solver) addTokenRep(v Var, t Token) {
	s.tokensDelivered++
	st := s.state(v)
	if st.hasToken(t) {
		return
	}
	st.appendToken(t)
	s.queue = append(s.queue, delivery{v, t})
}

// addEdge adds the subset constraint ⟦from⟧ ⊆ ⟦to⟧.
func (s *solver) addEdge(from, to Var) {
	if s.prov != nil {
		s.prov.noteEdge(from, to)
	}
	from, to = s.find(from), s.find(to)
	if from == to {
		return
	}
	st := s.state(from)
	if st.hasEdge(to) {
		return
	}
	st.appendEdge(to)
	s.noteSweepRoot(to)
	if s.par.deferPush && st.delivered > 0 {
		// Inside a parallel barrier the prefix push is deferred into a scan
		// task of the next epoch, so its membership checks run on the
		// workers instead of serially here. The prefix [0:delivered] is
		// immutable, and stays exact across a cycle sweep before the task
		// runs (see pushTask), so recording the bound now is exact.
		s.par.pushTasks = append(s.par.pushTasks,
			pushTask{from: from, to: to, lim: int32(st.delivered)})
		return
	}
	// Push only the processed prefix across the new edge: every pending
	// token (the suffix) still has a live queue entry and will cross this
	// edge when it pops — pushing it here too would deliver it twice.
	for i := 0; i < st.delivered; i++ {
		s.addTokenRep(to, st.tokens[i])
	}
}

// onToken registers fn to run for every token that is or becomes a member
// of ⟦v⟧. fn may add tokens, edges, and further triggers. Each (trigger,
// token) pair fires exactly once: at registration time for already-
// processed tokens, and from the queue for pending and future ones.
func (s *solver) onToken(v Var, fn func(Token)) {
	st := s.state(s.find(v))
	st.triggers = append(st.triggers, fn)
	if st.delivered == 0 {
		// Fast path: nothing delivered yet — the common case during
		// constraint generation, where registration must not allocate.
		return
	}
	// Replay the processed prefix by index instead of copying it: the
	// prefix below delivered is immutable (appends go after it, merge
	// swaps stay at or beyond it) and st is chunk-stable, so st.tokens[i]
	// for i < n keeps its value even if fn appends (and reallocates) the
	// slice. delivered itself only advances in the epoch engine's apply
	// pass, never from within a trigger, so n is stable across the replay.
	n := st.delivered
	for i := 0; i < n; i++ {
		fn(st.tokens[i])
	}
}

// swapTokens exchanges the tokens at positions i and j, keeping the spill
// index coherent.
func (st *varState) swapTokens(i, j int) {
	st.tokens[i], st.tokens[j] = st.tokens[j], st.tokens[i]
	if st.has != nil {
		st.has[st.tokens[i]] = int32(i)
		st.has[st.tokens[j]] = int32(j)
	}
}

// ------------------------------------------------------------ cycle collapse

// collapse unifies a group of mutually reachable representatives into one.
// The member with the largest token set wins (fewest token moves), ties
// broken toward the smallest variable for determinism.
func (s *solver) collapse(members []Var) {
	winner := members[0]
	for _, m := range members[1:] {
		if n, w := len(s.state(m).tokens), len(s.state(winner).tokens); n > w || (n == w && m < winner) {
			winner = m
		}
	}
	s.cyclesCollapsed++
	// Contracting a strongly connected set closes no cycle the graph did
	// not already contain, so the edges merged below are not sweep roots.
	// Point every member at the winner first, so intra-group edges resolve
	// to self (and are dropped) while the contents merge.
	for _, m := range members {
		if m != winner {
			s.parent[m] = winner
		}
	}
	for _, m := range members {
		if m != winner {
			s.mergeContents(m, winner)
		}
	}
	s.compactEdges(winner)
}

// mergeContents folds the merged-away member m into its representative r:
// triggers are reconciled so every (trigger, token) pair over the unified
// set still fires exactly once, m's edges join r's (deduplicated), and m's
// tokens not yet in r are inserted and scheduled. m keeps nothing: every
// read of its set resolves to r through find.
func (s *solver) mergeContents(m, r Var) {
	ms, rs := s.state(m), s.state(r)
	s.varsUnified++

	if len(ms.triggers) > 0 {
		// Tokens r has already processed never re-enter the queue, so m's
		// triggers must see them now — except the ones m itself already
		// fired.
		for i := 0; i < rs.delivered; i++ {
			t := rs.tokens[i]
			if idx := ms.indexOf(t); idx >= 0 && idx < ms.delivered {
				continue // m already fired this pair
			}
			for _, fn := range ms.triggers {
				fn(t)
			}
		}
		// Conversely, tokens m already fired that r has not yet processed
		// will be processed by r later; m's moved triggers must skip them.
		var skip map[Token]struct{}
		for i := 0; i < ms.delivered; i++ {
			t := ms.tokens[i]
			if idx := rs.indexOf(t); idx >= 0 && idx < rs.delivered {
				continue // also processed by r: never delivered again
			}
			if skip == nil {
				skip = make(map[Token]struct{})
			}
			skip[t] = struct{}{}
		}
		if skip == nil {
			rs.triggers = append(rs.triggers, ms.triggers...)
		} else {
			for _, fn := range ms.triggers {
				fn := fn
				rs.triggers = append(rs.triggers, func(t Token) {
					if _, fired := skip[t]; fired {
						return
					}
					fn(t)
				})
			}
		}
	}

	// Edges: union into r, dropping self-edges and duplicates. New edges
	// receive r's processed tokens (m's own tokens already crossed them,
	// and every pending token — r's suffix included — still has a queue
	// entry that will cross r's merged edge list when it pops).
	for _, e := range ms.edges {
		te := s.find(e)
		if te == r || rs.hasEdge(te) {
			s.edgesDeduped++
			continue
		}
		rs.appendEdge(te)
		for i := 0; i < rs.delivered; i++ {
			s.addTokenRep(te, rs.tokens[i])
		}
	}

	// Tokens: insert m's members r lacks (scheduling their processing).
	for _, t := range ms.tokens {
		s.addTokenRep(r, t)
	}

	*ms = varState{}
}

// compactEdges rewrites r's edge list with every target resolved to its
// representative, dropping self-edges and duplicates that condensation
// created.
func (s *solver) compactEdges(r Var) {
	rs := s.state(r)
	if len(rs.edges) == 0 {
		return
	}
	out := rs.edges[:0]
	var seen map[Var]struct{}
	if len(rs.edges) > smallSetMax {
		seen = make(map[Var]struct{}, 2*len(rs.edges))
	}
	for _, e := range rs.edges {
		te := s.find(e)
		if te == r {
			s.edgesDeduped++
			continue
		}
		if seen != nil {
			if _, dup := seen[te]; dup {
				s.edgesDeduped++
				continue
			}
			seen[te] = struct{}{}
		} else {
			dup := false
			for _, x := range out {
				if x == te {
					dup = true
					break
				}
			}
			if dup {
				s.edgesDeduped++
				continue
			}
		}
		out = append(out, te)
	}
	rs.edges = out
	if len(out) > smallSetMax {
		rs.edgeHas = make(map[Var]struct{}, 2*len(out))
		for _, x := range out {
			rs.edgeHas[x] = struct{}{}
		}
	} else {
		rs.edgeHas = nil
	}
}

// sweepScratch holds the reusable state of a cycle sweep. Tarjan indices
// increase across sweeps instead of being reset: a variable is unvisited
// in the current sweep while index[v] <= the previous sweep's last index,
// so a sweep costs what it visits, not O(nVars). onStack needs no reset,
// since a finished pass leaves every entry false.
type sweepScratch struct {
	index   []int32
	lowlink []int32
	onStack []bool
	stack   []Var
	frames  []sweepFrame
	// next is the last Tarjan index handed out; roots holds the current
	// sweep's start points.
	next  int32
	roots []Var
}

type sweepFrame struct {
	v    Var
	edge int
}

// noteSweepRoot records v, the target of a new edge, as a root of the next
// cycle sweep (see sweepRoots).
func (s *solver) noteSweepRoot(v Var) {
	if !s.swept {
		return
	}
	if int(v) >= len(s.sweepMark) {
		s.sweepMark = append(s.sweepMark, make([]bool, s.nVars-len(s.sweepMark))...)
	}
	if !s.sweepMark[v] {
		s.sweepMark[v] = true
		s.sweepRoots = append(s.sweepRoots, v)
	}
}

// sweepDue reports whether a cycle sweep could find anything: before the
// first sweep, or once an edge was added since the last one.
func (s *solver) sweepDue() bool { return !s.swept || len(s.sweepRoots) > 0 }

// takeSweepRoots prepares the sweep scratch for a sweep of the current
// graph and returns its roots in ascending order: every representative with
// edges for the solver's first sweep (see sweepComponents on sinks), then
// the representatives of the edge targets recorded since. The recorded list
// is consumed, so edges added from here on root the following sweep.
func (s *solver) takeSweepRoots() []Var {
	sw := &s.sweep
	roots := sw.roots[:0]
	if !s.swept {
		s.swept = true
		for v := 0; v < s.nVars; v++ {
			if s.parent[v] == Var(v) && len(s.state(Var(v)).edges) > 0 {
				roots = append(roots, Var(v))
			}
		}
	} else {
		for _, v := range s.sweepRoots {
			s.sweepMark[v] = false
			roots = append(roots, s.find(v))
		}
		s.sweepRoots = s.sweepRoots[:0]
		slices.Sort(roots)
		roots = slices.Compact(roots)
	}
	sw.roots = roots
	if grow := s.nVars - len(sw.index); grow > 0 {
		sw.index = append(sw.index, make([]int32, grow)...)
		sw.lowlink = append(sw.lowlink, make([]int32, grow)...)
		sw.onStack = append(sw.onStack, make([]bool, grow)...)
	}
	if sw.next > math.MaxInt32-int32(s.nVars) {
		// The indices would overflow this sweep: start them over.
		clear(sw.index)
		sw.next = 0
	}
	return roots
}

// collapseAllSCCs runs a cycle sweep on the solver goroutine and unifies
// every multi-member component. A sweep rooted at the new edges' targets
// finds every SCC of the graph, because the previous sweep left it acyclic.
func (s *solver) collapseAllSCCs() {
	if !s.sweepDue() {
		return
	}
	t0 := time.Now()
	// Collapse after the sweep so the traversal never sees a half-merged
	// graph. Components are disjoint and come in deterministic discovery
	// order; edges the collapses' triggers add root the next sweep.
	comps, visited := s.sweepComponents(s.takeSweepRoots())
	s.par.stats.SweepVisited += visited
	for _, comp := range comps {
		s.collapse(comp)
	}
	s.par.stats.SweepNS += time.Since(t0).Nanoseconds()
}

// ----------------------------------------------------------------- snapshot

// solverSnapshot is a deep copy of a drained solver: every variable's
// state plus the union-find forest and the cycle-sweep state, so a
// later restore can fork a second monotone extension from the same
// fixpoint. Collapsing never changes a least fixpoint, and a copy is
// indifferent to the parent rewrites, merges and pending-token swaps it
// makes, so both forks solve with collapsing on.
type solverSnapshot struct {
	states     []varState
	parent     []Var
	nextSweep  int64
	swept      bool
	sweepRoots []Var
	sweepMark  []bool
}

// snapshot copies the solver at a drained fixpoint. Trigger lists are
// copied but the closures in them are shared: the analyzer's closures keep
// their mutable state in the analyzer, which its own snapshot restores.
func (s *solver) snapshot() *solverSnapshot {
	if len(s.queue) != 0 {
		panic("static: snapshot of an undrained solver")
	}
	snap := &solverSnapshot{
		states:     make([]varState, s.nVars),
		parent:     slices.Clone(s.parent),
		nextSweep:  s.nextSweep,
		swept:      s.swept,
		sweepRoots: slices.Clone(s.sweepRoots),
		sweepMark:  slices.Clone(s.sweepMark),
	}
	for v := range snap.states {
		st := s.state(Var(v))
		snap.states[v] = varState{
			tokens:    slices.Clone(st.tokens),
			has:       maps.Clone(st.has),
			delivered: st.delivered,
			edges:     slices.Clone(st.edges),
			edgeHas:   maps.Clone(st.edgeHas),
			triggers:  slices.Clone(st.triggers),
		}
	}
	return snap
}

// restore returns the solver to snap, dropping the variables created
// since. The solver adopts the snapshot's copies, so a snapshot restores
// once. The queue must be drained. Effort counters are deliberately left
// cumulative — the discarded fork's work was still performed.
func (s *solver) restore(snap *solverSnapshot) {
	if len(s.queue) != 0 {
		panic("static: restore into an undrained solver")
	}
	for v := len(snap.states); v < s.nVars; v++ {
		*s.state(Var(v)) = varState{}
	}
	for v, st := range snap.states {
		*s.state(Var(v)) = st
	}
	s.nVars = len(snap.states)
	s.parent = snap.parent
	s.nextSweep = snap.nextSweep
	s.swept = snap.swept
	s.sweepRoots = snap.sweepRoots
	s.sweepMark = snap.sweepMark
}

// --------------------------------------------------------------- inspection

// stats reports fixpoint iterations and token-delivery attempts so far.
func (s *solver) stats() (iterations, tokensDelivered int64) {
	return s.iterations, s.tokensDelivered
}

// StructureStats describes cycle-collapse activity: collapse events,
// variables unified, edges dropped as duplicate or self under condensation,
// and deliveries short-circuited as redundant. Exposed on Result so callers
// can compare solver structure — not just reports — across configurations.
type StructureStats struct {
	CyclesCollapsed  int64
	VarsUnified      int64
	EdgesDeduped     int64
	RedundantSkipped int64
}

// structure reports the cycle-collapse counters so far.
func (s *solver) structure() StructureStats {
	return StructureStats{
		CyclesCollapsed:  s.cyclesCollapsed,
		VarsUnified:      s.varsUnified,
		EdgesDeduped:     s.edgesDeduped,
		RedundantSkipped: s.redundantSkipped,
	}
}

// tokens returns the current members of ⟦v⟧ in processing order.
func (s *solver) tokens(v Var) []Token { return s.state(s.find(v)).tokens }

// size returns the number of tokens in ⟦v⟧.
func (s *solver) size(v Var) int { return len(s.state(s.find(v)).tokens) }

// numVars returns the number of allocated variables.
func (s *solver) numVars() int { return s.nVars }
