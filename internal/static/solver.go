// Package static implements the subset-based, flow-insensitive,
// context-insensitive points-to and call-graph analysis of the paper's §4,
// including the two hint-consuming constraint rules [DPR] and [DPW].
package static

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

// queueCompactMin bounds how much dead prefix the delivery queue tolerates
// before sliding live entries down to reuse the backing array. Compaction
// is O(live entries), so it must be rare relative to pops: with the
// additional s.head*2 >= len(s.queue) guard the amortized cost is O(1) per
// pop for any value, and the constant only decides the floor below which we
// never bother. 1024 keeps the queue inside a few pages for the small
// per-module solves (BenchmarkSolverPropagation regresses ~3% at 64 from
// compacting tiny queues, and is flat from 256 up; see
// BenchmarkQueueCompactFloor).
const queueCompactMin = 1024

// lcdSearchBudget caps the nodes one lazy-cycle-detection DFS may visit.
// A redundant delivery only suggests a cycle; confirming it is a reachability
// search, and on pathological graphs (long chains feeding a shared sink)
// the search can touch everything without finding one. The budget bounds
// that cost; cycles a capped search misses are picked up by the periodic
// SCC sweep.
const lcdSearchBudget = 2048

// sccSweepInterval is the number of fixpoint iterations between full
// Pearce/Nuutila-style SCC sweeps over the condensed constraint graph.
// Sweeps are O(V+E) and catch the cycles lazy detection misses (cycles
// whose redundant deliveries happened before the closing edge existed, and
// ones beyond lcdSearchBudget). The interval is small because cycles in
// this analysis form late — call-processing triggers add the closing edges
// mid-solve — and a cycle only pays off while propagation through it is
// still happening: per-module solves run a few thousand iterations total,
// so an interval in the tens of thousands would never fire. Graphs large
// enough that a full pass every 1024 iterations would itself dominate the
// solve use the size-scaled interval from sweepInterval instead.
const sccSweepInterval = 1024

// sweepInterval is the iteration gap between periodic SCC sweeps: the
// fixed sccSweepInterval for corpus-sized graphs (nVars/4 does not exceed
// 1024 until ~4k variables, so every corpus project keeps the exact
// historical cadence), scaled linearly with graph size beyond that so the
// O(V+E) pass stays a bounded fraction of solve time on mega-scale
// projects.
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
// token from orbiting the cycle once per edge. Cycles are found two ways:
//
//   - lazily: a redundant delivery along edge v→w (w already had the token)
//     is the classic Hardekopf/Lin signal that w may already flow back into
//     v; the first redundant delivery per (v,w) pair triggers a bounded
//     reachability search and collapses the cycle it finds;
//   - periodically: every sweepInterval iterations (and at every solve
//     entry) a full Tarjan sweep over the condensed graph collapses the
//     SCCs lazy detection missed.
//
// Propagation runs on the epoch engine (parallel.go), which does all
// merging between epochs, never inside one, so edge and trigger iteration
// state is never invalidated mid-delivery. The exact no-unify mode
// (rollback windows, the reference solver) runs a plain pop loop instead.
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
	// queue of pending (var, token) deliveries, consumed from head (a
	// ring-style head index instead of re-slicing, so popping is O(1) and
	// the backing array is reused once drained). Entries hold the variable
	// as it was addressed at append time; pops resolve through find, so
	// deliveries addressed to since-merged members land on their
	// representative.
	queue []delivery
	head  int

	// noUnify disables cycle collapsing entirely — the reference engine the
	// differential property tests compare against (and the exact behavior
	// of the pre-condensation solver).
	noUnify bool

	// Lazy cycle detection: candidate edges whose delivery was redundant,
	// checked (once per pair, ever) between epochs.
	lcdPending []edgePair
	lcdChecked map[edgePair]struct{}
	// nextSweep is the iteration count at which the next periodic SCC
	// sweep runs.
	nextSweep int64
	// sccDirty records whether any constraint edge was added since the
	// last full SCC sweep. A sweep leaves the representative graph
	// acyclic, and only new edges can close new cycles, so a sweep over a
	// clean graph is a guaranteed no-op — collapseAllSCCs skips it. This
	// is exact (identical collapse counters), not a heuristic, and it is
	// what keeps the O(V+E) periodic sweep off the solver's critical path
	// on large projects whose propagation phase adds no edges.
	sccDirty bool
	// par is the sharded epoch engine (parallel.go) that solve runs while
	// unification is on. The exact no-unify mode (rollback windows, the
	// reference solver) takes the pop loop in solve instead: rollback
	// depends on append-only mutation, and the epoch engine's value is
	// moot without collapsing anyway.
	par *parallelEngine
	// Reusable sweep scratch (Tarjan index/lowlink/stacks), kept across
	// sweeps to avoid re-allocating O(nVars) arrays every interval.
	sweep sweepScratch
	// Reusable pathBetween scratch (see lcdPathScratch).
	lcdPath lcdPathScratch

	// perf counters: fixpoint iterations (queue pops) and tokens delivered
	// (insertion attempts on the hot path, i.e. addToken calls).
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

// edgePair identifies a directed constraint edge for lazy cycle detection.
type edgePair struct{ from, to Var }

// newSolver builds a solver on the epoch engine with one worker; see
// configureParallel for more.
func newSolver() *solver {
	return &solver{
		queue:     make([]delivery, 0, 1024),
		nextSweep: sccSweepInterval,
		par:       newParallelEngine(1),
	}
}

// newReferenceSolver builds a solver with cycle collapsing disabled: plain
// FIFO propagation in the pop loop, used as the differential oracle by the
// unification and epoch-engine property tests.
func newReferenceSolver() *solver {
	s := newSolver()
	s.noUnify = true
	return s
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

// addTokenRep is addToken for an already-resolved representative. It
// reports whether the token was new.
func (s *solver) addTokenRep(v Var, t Token) bool {
	s.tokensDelivered++
	st := s.state(v)
	if st.hasToken(t) {
		return false
	}
	st.appendToken(t)
	s.queue = append(s.queue, delivery{v, t})
	return true
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
	s.sccDirty = true
	if s.par.deferPush && st.delivered > 0 {
		// Inside a parallel barrier the prefix push is deferred into a scan
		// task of the next epoch, so its membership checks run on the
		// workers instead of serially here. The prefix [0:delivered] is
		// immutable until the task runs (unification is gated off while
		// pushes are pending), so recording the bound now is exact.
		s.par.pushTasks = append(s.par.pushTasks,
			pushTask{from: from, to: to, lim: int32(st.delivered)})
		return
	}
	// Push only the processed prefix across the new edge: every pending
	// token (the suffix) still has a live queue entry and will cross this
	// edge when it pops — pushing it here too would deliver it twice.
	noted := false
	for i := 0; i < st.delivered; i++ {
		if !s.addTokenRep(to, st.tokens[i]) && !s.noUnify && !noted {
			// A redundant bulk push is the strongest cycle signal this
			// analysis produces: closing edges are mostly added by call
			// triggers after both sides' sets have settled, so the orbit
			// deliveries classic lazy cycle detection watches for never
			// happen — the redundancy shows up here instead. One note per
			// push suffices: noteLCD is keyed by the (from, to) pair, so
			// every further redundant token in the same push is dropped by
			// its dedup anyway.
			s.noteLCD(from, to)
			noted = true
		}
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
	// slice. delivered itself only advances in solve's pop loop or the epoch
	// engine's apply pass, never from within a trigger, so n is stable
	// across the replay.
	n := st.delivered
	for i := 0; i < n; i++ {
		fn(st.tokens[i])
	}
}

// solve runs propagation to a fixpoint on the epoch engine, or — in the
// exact no-unify mode — in a plain FIFO pop loop. Without unification every
// queue entry is a token appended to its variable's pending suffix in queue
// order, so each pop processes exactly that variable's next pending token.
func (s *solver) solve() {
	if !s.noUnify {
		s.solveParallel()
		return
	}
	for s.head < len(s.queue) {
		d := s.queue[s.head]
		s.head++
		s.iterations++
		if s.head >= queueCompactMin && s.head*2 >= len(s.queue) {
			// Slide live entries down so the backing array is reused
			// instead of growing by the total number of deliveries.
			n := copy(s.queue, s.queue[s.head:])
			s.queue = s.queue[:n]
			s.head = 0
		}
		v := s.find(d.v)
		// The state pointer is stable (chunked storage), but triggers may
		// extend this variable's own edge and trigger lists while we
		// iterate, so re-check the lengths each step.
		st := s.state(v)
		for i := 0; i < len(st.edges); i++ {
			s.addTokenRep(s.find(st.edges[i]), d.t)
		}
		// Mark delivered before running triggers so a trigger registering
		// further triggers on this variable does not re-fire for d.t.
		st.delivered++
		// Snapshot the trigger count: triggers registered during this loop
		// (by a trigger on the same variable) already see d.t through the
		// registration-time replay — running them here too would fire the
		// (trigger, token) pair twice.
		n := len(st.triggers)
		for i := 0; i < n; i++ {
			st.triggers[i](d.t)
		}
	}
	// Fully drained: release the queue for the next solve round.
	s.queue = s.queue[:0]
	s.head = 0
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

// noteLCD records a lazy-cycle-detection candidate: the edge from→to just
// carried a redundant delivery. Each pair is checked at most once, ever.
func (s *solver) noteLCD(from, to Var) {
	key := edgePair{from, to}
	if s.lcdChecked == nil {
		s.lcdChecked = map[edgePair]struct{}{}
	}
	if _, done := s.lcdChecked[key]; done {
		return
	}
	s.lcdChecked[key] = struct{}{}
	s.lcdPending = append(s.lcdPending, key)
}

// lcdSweepBatch is the pending-candidate count past which solveParallel
// abandons per-pair searches for one full Tarjan sweep: each search may
// visit up to lcdSearchBudget nodes, so a large batch costs more than the
// linear sweep that collapses every cycle (including ones the bounded
// searches would miss) in a single pass.
const lcdSweepBatch = 32

// runLCD processes a small batch of pending cycle candidates (fewer than
// lcdSweepBatch). For a candidate edge v→w, a cycle exists iff w reaches v;
// the bounded search returns the discovered path w…v, which together with
// the v→w edge forms the cycle to collapse.
func (s *solver) runLCD() {
	pending := s.lcdPending
	s.lcdPending = s.lcdPending[:0]
	for _, cand := range pending {
		v, w := s.find(cand.from), s.find(cand.to)
		if v == w {
			continue // collapsed by an earlier candidate
		}
		if path := s.pathBetween(w, v); path != nil {
			s.collapse(path)
		}
	}
}

// pathBetween returns a path of representatives from src to dst following
// constraint edges, or nil if none is found within lcdSearchBudget nodes.
// Search state lives in reusable stamped scratch arrays: runLCD calls this
// once per candidate pair, and on cycle-dense runs a per-call map allocation
// showed up as a top profile entry.
func (s *solver) pathBetween(src, dst Var) []Var {
	lp := &s.lcdPath
	if len(lp.prev) < s.nVars {
		lp.prev = make([]Var, s.nVars)
		lp.stamp = make([]int32, s.nVars)
		lp.gen = 0
	}
	lp.gen++
	if lp.gen == 0 { // stamp wrapped: invalidate everything once
		for i := range lp.stamp {
			lp.stamp[i] = 0
		}
		lp.gen = 1
	}
	seen := func(v Var) bool { return lp.stamp[v] == lp.gen }
	mark := func(v, from Var) { lp.stamp[v] = lp.gen; lp.prev[v] = from }

	mark(src, src)
	lp.stack = append(lp.stack[:0], src)
	visited := 1
	for len(lp.stack) > 0 {
		n := lp.stack[len(lp.stack)-1]
		lp.stack = lp.stack[:len(lp.stack)-1]
		for _, e := range s.state(n).edges {
			te := s.find(e)
			if te == n || seen(te) {
				continue
			}
			mark(te, n)
			if te == dst {
				var path []Var
				for cur := dst; ; cur = lp.prev[cur] {
					path = append(path, cur)
					if cur == src {
						return path
					}
				}
			}
			if visited++; visited > lcdSearchBudget {
				return nil
			}
			lp.stack = append(lp.stack, te)
		}
	}
	return nil
}

// lcdPathScratch is pathBetween's reusable DFS state: generation-stamped
// visited marks and predecessor links, so a search never allocates.
type lcdPathScratch struct {
	prev  []Var
	stamp []int32
	gen   int32
	stack []Var
}

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
	// not already contain, so the sccDirty flag is left as it is.
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

// sweepScratch holds the reusable state of the periodic SCC sweep.
type sweepScratch struct {
	index   []int32
	lowlink []int32
	onStack []bool
	stack   []Var
	frames  []sweepFrame
}

type sweepFrame struct {
	v    Var
	edge int
}

// collapseAllSCCs runs a Tarjan SCC pass over the condensed graph and
// unifies every multi-member component. This is the backstop for cycles
// lazy detection misses: ones closed by edges added after their redundant
// deliveries happened, and ones beyond the LCD search budget.
func (s *solver) collapseAllSCCs() {
	if !s.sccDirty {
		// Clean graph: the previous sweep left the representative graph
		// acyclic and no edge has been added since, so there is nothing a
		// Tarjan pass could collapse.
		return
	}
	// Collapse after the sweep so the traversal never sees a half-merged
	// graph. Components are disjoint, so order does not matter for
	// correctness; iteration order is deterministic (discovery order).
	for _, comp := range sccComponents(s, s.nVars, &s.sweep) {
		s.collapse(comp)
	}
	// The representative graph is acyclic now; the next sweep can be
	// skipped until an edge addition dirties it again. Cleared after the
	// collapses, whose merge-time edge moves stay within this pass.
	s.sccDirty = false
}

// ----------------------------------------------------------------- rollback

// rollbackPoint snapshots the solver at a drained fixpoint so a later
// rollbackTo can restore it exactly. The snapshot is O(nVars) lengths, not
// a copy of any set: it relies on every post-snapshot mutation being
// append-only, which holds only while unification is disabled (noUnify) —
// merges rewrite parents, free merged members' contents, and swap pending
// tokens out of append order, none of which a length snapshot can undo.
// rollbackPoint therefore flips the solver into its no-unify mode; the
// caller keeps it there for every phase it intends to roll back. Solving
// without unification is exact (collapsing is only an effort optimization),
// so results are unaffected.
type rollbackPoint struct {
	nVars      int
	tokensLen  []int32
	edgesLen   []int32
	trigLen    []int32
	hasNil     []bool
	edgeHasNil []bool
	nextSweep  int64
}

// rollbackPoint captures the current drained fixpoint and opens the
// append-only (no-unify) window that makes rollbackTo possible.
func (s *solver) rollbackPoint() *rollbackPoint {
	s.noUnify = true
	rp := &rollbackPoint{
		nVars:      s.nVars,
		tokensLen:  make([]int32, s.nVars),
		edgesLen:   make([]int32, s.nVars),
		trigLen:    make([]int32, s.nVars),
		hasNil:     make([]bool, s.nVars),
		edgeHasNil: make([]bool, s.nVars),
		nextSweep:  s.nextSweep,
	}
	for v := 0; v < s.nVars; v++ {
		st := s.state(Var(v))
		rp.tokensLen[v] = int32(len(st.tokens))
		rp.edgesLen[v] = int32(len(st.edges))
		rp.trigLen[v] = int32(len(st.triggers))
		rp.hasNil[v] = st.has == nil
		rp.edgeHasNil[v] = st.edgeHas == nil
	}
	return rp
}

// rollbackTo restores the solver to rp: post-snapshot variables are
// released, and every surviving state's token, edge, and trigger lists are
// truncated to their snapshot lengths (with spill maps shrunk or dropped to
// match). Valid only if the solver stayed in no-unify mode since rp was
// taken and the queue is drained (both phases ended at a fixpoint). Effort
// counters are deliberately left cumulative — rolled-back work was still
// performed.
func (s *solver) rollbackTo(rp *rollbackPoint) {
	if !s.noUnify {
		panic("static: rollbackTo outside the no-unify window")
	}
	if s.head != len(s.queue) && len(s.queue) != 0 {
		panic("static: rollbackTo with undrained queue")
	}
	for v := rp.nVars; v < s.nVars; v++ {
		*s.state(Var(v)) = varState{}
	}
	s.nVars = rp.nVars
	s.parent = s.parent[:rp.nVars]
	for v := 0; v < rp.nVars; v++ {
		st := s.state(Var(v))
		tl := int(rp.tokensLen[v])
		if len(st.tokens) > tl {
			if st.has != nil {
				for _, t := range st.tokens[tl:] {
					delete(st.has, t)
				}
			}
			st.tokens = st.tokens[:tl]
		}
		if st.has != nil && rp.hasNil[v] {
			st.has = nil
		}
		// At a drained fixpoint every token's queue entry was processed.
		st.delivered = tl
		el := int(rp.edgesLen[v])
		if len(st.edges) > el {
			if st.edgeHas != nil {
				for _, e := range st.edges[el:] {
					delete(st.edgeHas, e)
				}
			}
			st.edges = st.edges[:el]
		}
		if st.edgeHas != nil && rp.edgeHasNil[v] {
			st.edgeHas = nil
		}
		if len(st.triggers) > int(rp.trigLen[v]) {
			st.triggers = st.triggers[:rp.trigLen[v]]
		}
	}
	s.queue = s.queue[:0]
	s.head = 0
	s.nextSweep = rp.nextSweep
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
