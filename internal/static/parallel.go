package static

// The sharded epoch engine: the solver's only propagation loop. It computes
// the least fixpoint with the same counter values for any worker count, by
// splitting each round of propagation into a pipeline of phases:
//
//   - a scan phase that is strictly read-only over solver state: the pending
//     frontier (everything queued since the last round) is partitioned into
//     shards keyed by union-find representative, cut into fixed-size chunks,
//     and scanned by the workers — each delivery's edge list is walked and
//     the destinations that would newly receive the token are recorded as
//     proposals, together with the frozen edge/self-edge counts the apply
//     pass needs for exact effort accounting. Every chunk exists before the
//     workers start, so they claim chunks through one shared cursor.
//
//   - a shard-owned apply pass (parallel, partitioned by variable shard):
//     each worker walks every chunk in the fixed barrier order and performs
//     the mutations it owns — token inserts into destinations of its shards,
//     and source-side bookkeeping (liveness, processed-prefix swaps,
//     delivered advance, effort accounting into per-worker accumulators) for
//     frontier deliveries of its shards. A variable's shard is the same
//     whether it acts as a source or a destination, so all mutation of one
//     varState stays on one worker, in the same relative order the serial
//     barrier would have used. The apply pass is the one place an insertion
//     is decided: diamond-shaped graphs propose the same (destination, token)
//     pair from many sources within one epoch, and the destination's owner,
//     walking the proposals in replay order, inserts at the first one that
//     finds the token absent; the later ones find it present. Cross-shard
//     effects are not applied here: queue scheduling and trigger firing are
//     deferred to the tail.
//
//   - a short serial tail on the solver goroutine that replays the epoch in
//     the fixed order (shards ascending, per-shard sequence order): won
//     inserts are scheduled on the delivery queue, and each live delivery's
//     triggers fire against the epoch-advanced state.
//     Trigger-added edges push their processed-prefix as next-epoch scan
//     tasks (pushTask); because every delivery of this epoch advanced
//     `delivered` in the apply pass before any trigger ran, the recorded
//     prefix bound already covers the whole epoch, which is what lets the
//     old per-delivery delta scan disappear from the serial path entirely.
//
// Each epoch drains the whole frontier. Tarjan cycle sweeps, the solver's
// only cycle detection, run synchronously between epochs at deterministic
// points of the sweepInterval cadence. Each sweep after the solver's first
// starts only from the targets of edges added since the previous one and
// visits what they reach (see solver.sweepRoots), so it costs in proportion
// to the graph's growth, not its size.
//
// Exactness: the constraint system is monotone, so its least fixpoint is
// independent of delivery order — the same argument that makes the
// incremental baseline→extended resume exact, and the one the property
// tests check against the FIFO reference solver (solveFIFO, a test file).
// Determinism: proposal slots are keyed by (shard, sequence), which depends
// only on the epoch-start state, never on which worker scanned or applied a
// chunk or in what order; ownership splits (shard mod workers) change which
// goroutine performs an operation but not its position in the fixed replay
// order, and everything order-sensitive (queue scheduling, triggers) runs
// in the serial tail. Hence reports *and* effort counters are identical
// across worker counts, and identical between the concurrent path and the
// inline path used for small frontiers.
//
// A collapsed SCC never spans shards: sharding hashes the union-find
// representative, so every member of a unified group lands wherever its
// representative lands. All unification runs in cycle sweeps between
// epochs on the solver goroutine.

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// shardBits fixes the shard count. 64 shards keep the partition pass
	// cheap while giving the apply workers enough grain to balance: the
	// mega tier's frontiers spread over effectively all shards, and a chunk
	// never crosses a shard boundary.
	shardBits = 6
	nShards   = 1 << shardBits

	// epochChunk is the scan's claim granularity: deliveries per chunk.
	// Small enough that one hot shard splits into many pieces, large enough
	// that claiming stays a fraction of scan work.
	epochChunk = 64
)

// inlineFrontierMax is the frontier size at or below which the epoch runs
// entirely on the solver goroutine (same scan/apply/tail algorithm, no
// goroutine handoff). Results and counters are identical on both paths;
// this only avoids paying synchronization on the small frontiers that
// dominate per-module solves of the 141-project corpus. A variable so
// tests can force the concurrent path under the race detector.
var inlineFrontierMax = 512

// sweepCheck, when non-nil, is called with every cycle sweep's components
// as soon as they are computed, before any is collapsed, while the graph
// they were computed on is still unchanged. Tests set it to compare each
// rooted sweep with a whole-graph pass.
var sweepCheck func(s *solver, comps [][]Var)

// ParallelSolveStats describes one solver's epoch-engine activity.
// Epochs, CrossShard and SweepVisited are deterministic (identical for
// every worker count); the phase times depend on scheduling and are
// diagnostics only.
type ParallelSolveStats struct {
	// Epochs is the number of pipeline rounds run.
	Epochs int64
	// CrossShard counts applied proposals whose destination variable lives
	// in a different shard than the delivery that produced them.
	CrossShard int64
	// Always 0, since every cycle sweep runs synchronously; perfbench reads it.
	AsyncSweeps int64
	// SweepVisited counts the representatives visited by all cycle sweeps.
	SweepVisited int64
	// ScanNS covers the parallel read-only scan; ApplyNS the parallel
	// shard-owned apply pass; TailNS the serial tail (log replay, trigger
	// firing). SweepNS is the time spent in cycle sweeps, the solve-entry
	// ones included, which run between epochs and so outside all three.
	ScanNS  int64
	ApplyNS int64
	TailNS  int64
	SweepNS int64
}

// shardOfRep maps a representative variable to its shard. Fibonacci
// hashing spreads consecutive variable ids (which are allocated in program
// order, so neighbors are usually related) across shards.
func shardOfRep(v Var) int32 {
	return int32((uint32(v) * 0x9E3779B9) >> (32 - shardBits))
}

// findRO resolves v's representative without path compression. The scan
// phase runs it concurrently from many workers; the forest is never written
// during a scan (all unification happens between epochs), so the walk is
// race-free.
func (s *solver) findRO(v Var) Var {
	for s.parent[v] != v {
		v = s.parent[v]
	}
	return v
}

// pushTask is a deferred addEdge prefix push: deliver from's first lim
// processed tokens across the new from→to edge. Tasks are recorded when a
// tail-time trigger adds an edge (addEdge outside a tail pushes inline) and
// executed as scan work in the next epoch, which moves the membership
// checks — the dominant cost on dispatch-dense graphs, where
// most flow happens through call-resolution edges discovered mid-solve —
// onto the workers. Because the tail runs after every delivery of its epoch
// advanced `delivered`, lim covers the whole epoch, including tokens the
// old serial barrier could only reach with a per-delivery delta scan.
//
// The scan reads the prefix in place, as tokens[0:lim] of from's current
// representative, even when a cycle sweep ran after the task was recorded.
// That read is exact: a representative's prefix below delivered is
// immutable, so an unmerged from still holds the recorded tokens. A sweep
// that merges from into r leaves len(r.tokens) ≥ lim, since r gains every
// token from held; and mergeContents has already given r the from→to edge
// and queued every token r lacked, so whatever r.tokens[0:lim] delivers to
// to would arrive anyway. Any of those tokens still pending at r crosses
// the edge once more when it pops, and the apply pass's membership check
// turns that second arrival into a no-op.
type pushTask struct {
	from Var
	to   Var
	lim  int32
}

// Chunk kinds: a chunk scans either a slice of a shard's delivery frontier
// or a slice of the deferred push-task list.
const (
	chunkFrontier = int8(iota)
	chunkPush
)

// chunkRef identifies one contiguous run of a shard's frontier (kind
// chunkFrontier) or of the active push-task list (kind chunkPush, shard -1).
// Its index in parallelEngine.chunks is its deterministic id.
type chunkRef struct {
	shard int32
	lo    int32
	hi    int32
	kind  int8
}

// chunkOut is the scan output of one chunk, at the chunk's index in
// parallelEngine.chunks so its content never depends on which worker produced
// it. Slices are parallel per delivery: ends[i] is the end offset of
// delivery i's proposals in dests, edgeCnt[i] is the epoch-start edge count
// (-1 when the delivery was already redundant at scan time), selfCnt[i] the
// self-edges among them.
type chunkOut struct {
	dests   []Var
	ends    []int32
	edgeCnt []int32
	selfCnt []int32
	// idx caches each delivery token's position in its variable's token
	// array at scan time, saving the apply pass a membership lookup. Earlier
	// apply-pass processing of the same variable (same owner, earlier in the
	// fixed order) can move the token via merge swaps, so the apply pass
	// validates tokens[idx] == t before trusting it.
	idx []int32
	// trig freezes each delivery's trigger count at scan time. The tail
	// fires exactly triggers[0:trig[i]]: anything registered later was
	// registered during this tail, after every delivery of the epoch
	// advanced `delivered`, so its registration-time replay already covered
	// these tokens — firing it from the tail loop too would double-fire.
	trig []int32
	// live records the apply pass's per-delivery liveness verdict (written
	// by the source shard's owner): false when the delivery was redundant at
	// epoch start (edgeCnt -1) or was a same-epoch duplicate whose earlier
	// occurrence already advanced `delivered`. The tail skips dead
	// deliveries entirely, as the serial barrier did.
	live []bool

	// won is written by the apply pass, one entry per dests slot, by the
	// owner of the destination's shard only, so concurrent writes never
	// alias: true when this proposal inserted the token, false when the
	// destination already held it. The tail schedules exactly the won slots.
	won []bool

	// Push-chunk output (kind chunkPush): pushToks holds the membership-
	// negative tokens of each task, delimited by pushEnds; pushWon holds the
	// apply pass's insert verdicts, as won does for dests.
	pushToks []Token
	pushEnds []int32
	pushWon  []bool
}

// applyAcc is one apply-pass worker's effort accumulator. The tail folds
// the accumulators into the solver counters with plain integer sums, which
// are independent of how deliveries were split across workers, so counters
// stay identical at every worker count. Padded against false sharing.
type applyAcc struct {
	iterations int64
	delivered  int64
	redundant  int64
	crossShard int64
	_          [32]byte
}

// parallelEngine holds the reusable epoch state of one solver. All fields
// are owned by the solver goroutine outside the parallel phases; during a
// scan or apply pass, shardFrontier/chunks are read-only, outs entries are
// written by exactly one worker each (chunks are claimed exactly once in
// the scan; the apply pass partitions slots by shard), and the cursor
// synchronizes claiming.
type parallelEngine struct {
	workers int
	stats   ParallelSolveStats

	shardFrontier [nShards][]delivery
	chunks        []chunkRef
	outs          []chunkOut
	accs          []applyAcc
	// cursor is the index of the next unclaimed scan chunk in chunks.
	cursor atomic.Int64

	// deferPush is set for the duration of a serial tail: addEdge calls
	// from triggers record pushTasks instead of pushing token prefixes
	// inline. partition moves the accumulated tasks into pushActive, whose
	// chunks the next scan executes.
	deferPush  bool
	pushTasks  []pushTask
	pushActive []pushTask
}

func newParallelEngine(workers int) *parallelEngine {
	if workers < 1 {
		workers = 1
	}
	return &parallelEngine{
		workers: workers,
		accs:    make([]applyAcc, workers),
	}
}

// configureParallel sets the epoch engine's worker count; workers ≤ 1 runs
// every epoch inline on the solver goroutine. Results and deterministic
// counters are the same at every value.
func (s *solver) configureParallel(workers int) {
	s.par = newParallelEngine(workers)
}

// solve runs propagation to a fixpoint on the epoch engine. Between epochs
// it runs the periodic cycle sweeps on the solver goroutine; within an epoch
// the frontier is scanned and applied in parallel, then reconciled by the
// serial tail.
func (s *solver) solve() {
	p := s.par
	// Entry sweep: collapse every cycle the constraint generator (or a
	// previous solve round plus injected deltas) built statically, before
	// any token crosses its edges.
	s.collapseAllSCCs()
	for len(s.queue) > 0 || len(p.pushTasks) > 0 {
		if s.iterations >= s.nextSweep {
			s.nextSweep = s.iterations + s.sweepInterval()
			// Deferred pushes neither wait for the sweep nor run inline
			// for it: they stay next epoch's parallel scan work, which
			// reads their prefixes in place (see pushTask).
			s.collapseAllSCCs()
		}
		p.partition(s)
		nw := p.scan(s)
		p.apply(s, nw)
		p.tail(s)
		p.stats.Epochs++
	}
}

// sweepComponents is the read-only core of a cycle sweep: an iterative
// Tarjan pass that starts at roots, in order, visits only the
// representatives they reach, and returns the multi-member components in
// discovery order together with the number of representatives visited,
// without collapsing anything. A representative without edges is a
// component of its own that affects no other's lowlink, so the pass
// neither starts at nor descends into one; most variables are such sinks.
// The scratch must have been prepared by takeSweepRoots.
func (s *solver) sweepComponents(roots []Var) ([][]Var, int64) {
	sw := &s.sweep
	base := sw.next + 1 // indices below base belong to earlier sweeps
	sw.stack = sw.stack[:0]
	var comps [][]Var
	for _, rv := range roots {
		if sw.index[rv] >= base || len(s.state(rv).edges) == 0 {
			continue
		}
		sw.frames = append(sw.frames[:0], sweepFrame{v: rv})
		for len(sw.frames) > 0 {
			f := &sw.frames[len(sw.frames)-1]
			v := f.v
			if f.edge == 0 {
				sw.next++
				sw.index[v] = sw.next
				sw.lowlink[v] = sw.next
				sw.stack = append(sw.stack, v)
				sw.onStack[v] = true
			}
			st := s.state(v)
			advanced := false
			for f.edge < len(st.edges) {
				w := s.findRO(st.edges[f.edge])
				f.edge++
				if w == v {
					continue
				}
				if sw.index[w] < base {
					if len(s.state(w).edges) == 0 {
						continue // a sink
					}
					sw.frames = append(sw.frames, sweepFrame{v: w})
					advanced = true
					break
				}
				if sw.onStack[w] && sw.index[w] < sw.lowlink[v] {
					sw.lowlink[v] = sw.index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if sw.lowlink[v] == sw.index[v] {
				// Pop the component.
				var comp []Var
				for {
					w := sw.stack[len(sw.stack)-1]
					sw.stack = sw.stack[:len(sw.stack)-1]
					sw.onStack[w] = false
					if comp != nil || w != v {
						comp = append(comp, w)
					}
					if w == v {
						break
					}
				}
				if comp != nil {
					comps = append(comps, comp)
				}
			}
			sw.frames = sw.frames[:len(sw.frames)-1]
			if len(sw.frames) > 0 {
				pf := &sw.frames[len(sw.frames)-1]
				if sw.lowlink[v] < sw.lowlink[pf.v] {
					sw.lowlink[pf.v] = sw.lowlink[v]
				}
			}
		}
	}
	if sweepCheck != nil {
		sweepCheck(s, comps)
	}
	return comps, int64(sw.next - base + 1)
}

// partition drains the whole delivery queue into per-shard frontiers and
// cuts them into chunks in shard-ascending order. A chunk's index in that
// fixed order is its id, making every downstream index deterministic.
func (p *parallelEngine) partition(s *solver) {
	for i := range p.shardFrontier {
		p.shardFrontier[i] = p.shardFrontier[i][:0]
	}
	for _, d := range s.queue {
		v := s.find(d.v)
		sh := shardOfRep(v)
		p.shardFrontier[sh] = append(p.shardFrontier[sh], delivery{v, d.t})
	}
	s.queue = s.queue[:0]
	p.chunks = p.chunks[:0]
	for sh := 0; sh < nShards; sh++ {
		n := len(p.shardFrontier[sh])
		for lo := 0; lo < n; lo += epochChunk {
			hi := lo + epochChunk
			if hi > n {
				hi = n
			}
			p.chunks = append(p.chunks,
				chunkRef{shard: int32(sh), lo: int32(lo), hi: int32(hi)})
		}
	}
	// Deferred prefix pushes from the previous tail run as scan work this
	// epoch, chunked by token weight so one wide push cannot unbalance the
	// scan workers. Their chunks follow the frontier chunks in the fixed
	// replay order. Endpoints are re-resolved first: a cycle sweep since
	// the task was recorded may have retired either rep. The scan then
	// reads the surviving rep's tokens[0:lim] in place, which is exact: that
	// rep holds at least lim tokens, already owns the merged edge, and has
	// queued every token it lacked (see pushTask). A merge that joined the
	// two endpoints makes the push internal to one rep; mergeContents
	// already delivered the tokens, so the task is dropped.
	p.pushActive, p.pushTasks = p.pushTasks, p.pushActive[:0]
	live := p.pushActive[:0]
	for _, tk := range p.pushActive {
		tk.from, tk.to = s.find(tk.from), s.find(tk.to)
		if tk.from != tk.to {
			live = append(live, tk)
		}
	}
	p.pushActive = live
	const pushChunkWeight = 2048
	for lo, weight := 0, int32(0); lo < len(p.pushActive); {
		hi := lo
		for hi < len(p.pushActive) && (hi == lo || weight+p.pushActive[hi].lim <= pushChunkWeight) {
			weight += p.pushActive[hi].lim
			hi++
		}
		p.chunks = append(p.chunks,
			chunkRef{shard: -1, lo: int32(lo), hi: int32(hi), kind: chunkPush})
		lo, weight = hi, 0
	}
}

// scan runs the read-only proposal phase over every chunk and returns the
// effective worker count for the epoch (1 when it ran inline), which the
// apply pass reuses. Small frontiers (or a single worker) run inline on the
// solver goroutine; on larger ones each worker claims the next unscanned
// chunk from the shared cursor until none are left.
func (p *parallelEngine) scan(s *solver) int {
	t0 := time.Now()
	nc := len(p.chunks)
	for cap(p.outs) < nc {
		p.outs = append(p.outs[:cap(p.outs)], chunkOut{})
	}
	p.outs = p.outs[:nc]

	frontier := 0
	for sh := range p.shardFrontier {
		frontier += len(p.shardFrontier[sh])
	}
	for i := range p.pushActive {
		// A push task is scan work proportional to its prefix length.
		frontier += int(p.pushActive[i].lim)
	}
	nw := min(p.workers, nc)
	if nw < 1 || frontier <= inlineFrontierMax {
		nw = 1
	}
	p.cursor.Store(0)
	fanOut(nw, func(int) {
		for {
			i := p.cursor.Add(1) - 1
			if i >= int64(nc) {
				return
			}
			p.scanChunk(s, p.chunks[i], &p.outs[i])
		}
	})
	p.stats.ScanNS += time.Since(t0).Nanoseconds()
	return nw
}

// fanOut runs fn once for every worker index in [0, nw) and returns when
// all have finished: inline on the calling goroutine when nw ≤ 1, else on nw
// goroutines.
func fanOut(nw int, fn func(wi int)) {
	if nw <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for wi := 0; wi < nw; wi++ {
		go func() {
			defer wg.Done()
			fn(wi)
		}()
	}
	wg.Wait()
}

// scanChunk computes one chunk's proposals. Strictly read-only over solver
// state: it may only call findRO (no compression), indexOf/hasToken
// (membership reads), and read edge and trigger slices. Its output depends
// only on the epoch-start state and the chunk bounds — never on scheduling.
func (p *parallelEngine) scanChunk(s *solver, c chunkRef, out *chunkOut) {
	if c.kind == chunkPush {
		p.scanPushChunk(s, c, out)
		return
	}
	f := p.shardFrontier[c.shard][c.lo:c.hi]
	out.dests = out.dests[:0]
	out.ends = out.ends[:0]
	out.edgeCnt = out.edgeCnt[:0]
	out.selfCnt = out.selfCnt[:0]
	out.idx = out.idx[:0]
	out.trig = out.trig[:0]
	for _, d := range f {
		st := s.state(d.v)
		idx := st.indexOf(d.t)
		out.idx = append(out.idx, int32(idx))
		// Trigger lists only grow in serial tails (and between epochs), so
		// the count is frozen for the whole pipeline round.
		out.trig = append(out.trig, int32(len(st.triggers)))
		if idx < st.delivered {
			// Already processed when the epoch started (a duplicate queue
			// entry from before a merge); the apply pass will skip it too.
			out.edgeCnt = append(out.edgeCnt, -1)
			out.selfCnt = append(out.selfCnt, 0)
			out.ends = append(out.ends, int32(len(out.dests)))
			continue
		}
		self := int32(0)
		for _, e := range st.edges {
			w := s.findRO(e)
			if w == d.v {
				self++
				continue
			}
			if !s.state(w).hasToken(d.t) {
				out.dests = append(out.dests, w)
			}
		}
		out.edgeCnt = append(out.edgeCnt, int32(len(st.edges)))
		out.selfCnt = append(out.selfCnt, self)
		out.ends = append(out.ends, int32(len(out.dests)))
	}
	// Pre-size the apply pass's verdict arrays; it fills every won slot and
	// every live slot.
	if cap(out.won) < len(out.dests) {
		out.won = make([]bool, len(out.dests))
	}
	out.won = out.won[:len(out.dests)]
	if cap(out.live) < len(f) {
		out.live = make([]bool, len(f))
	}
	out.live = out.live[:len(f)]
}

// scanPushChunk scans a run of deferred prefix pushes: for each task it
// membership-filters from's token prefix, read in place, against the
// destination's set. Read-only like the frontier scan — partition resolved
// the endpoints and the prefix is immutable for the epoch.
func (p *parallelEngine) scanPushChunk(s *solver, c chunkRef, out *chunkOut) {
	tasks := p.pushActive[c.lo:c.hi]
	out.pushToks = out.pushToks[:0]
	out.pushEnds = out.pushEnds[:0]
	for i := range tasks {
		tk := tasks[i]
		dst := s.state(tk.to)
		for _, t := range s.state(tk.from).tokens[:tk.lim] {
			if !dst.hasToken(t) {
				out.pushToks = append(out.pushToks, t)
			}
		}
		out.pushEnds = append(out.pushEnds, int32(len(out.pushToks)))
	}
	if cap(out.pushWon) < len(out.pushToks) {
		out.pushWon = make([]bool, len(out.pushToks))
	}
	out.pushWon = out.pushWon[:len(out.pushToks)]
}

// apply is the shard-owned parallel mutation pass: every worker walks all
// chunks in the fixed replay order and performs exactly the operations whose
// variable it owns (variable shard mod worker count). Ownership covers both
// roles a variable can play in an epoch — frontier source (liveness,
// processed-prefix swap, delivered advance, effort accounting) and proposal
// destination (token inserts) — because both key off the same shard,
// so one varState is only ever touched by one worker, in the same relative
// order the serial barrier used.
//
// The pass mutates token sets and per-worker accumulators only; everything
// order-sensitive across shards (queue scheduling, trigger firing) is staged
// for the serial tail via the verdict arrays. No edge or
// parent state is written.
func (p *parallelEngine) apply(s *solver, nw int) {
	t0 := time.Now()
	fanOut(nw, func(wi int) { p.applyWorker(s, wi, nw) })
	// Fold the per-worker effort accumulators into the solver counters.
	// Integer sums are independent of the ownership split, so the totals are
	// identical at every worker count.
	for wi := 0; wi < nw; wi++ {
		acc := &p.accs[wi]
		s.iterations += acc.iterations
		s.tokensDelivered += acc.delivered
		s.redundantSkipped += acc.redundant
		p.stats.CrossShard += acc.crossShard
		*acc = applyAcc{}
	}
	p.stats.ApplyNS += time.Since(t0).Nanoseconds()
}

// applyWorker performs worker wi's owned share of the apply pass.
func (p *parallelEngine) applyWorker(s *solver, wi, nw int) {
	acc := &p.accs[wi]
	for ci := range p.chunks {
		c := p.chunks[ci]
		out := &p.outs[ci]
		if c.kind == chunkPush {
			p.applyPushChunk(s, c, out, acc, wi, nw)
			continue
		}
		srcOwned := nw <= 1 || int(c.shard)%nw == wi
		f := p.shardFrontier[c.shard][c.lo:c.hi]
		pstart := int32(0)
		for di := range f {
			d := f[di]
			pend := out.ends[di]
			if srcOwned {
				// Source-side bookkeeping, exactly as the serial barrier's
				// prologue: one iteration per frontier delivery, dead ones
				// (already processed at epoch start, or a same-epoch duplicate
				// whose earlier occurrence — same variable, same owner, earlier
				// in the fixed order — advanced delivered) count one redundant
				// skip and nothing else.
				acc.iterations++
				live := out.edgeCnt[di] >= 0
				if live {
					st := s.state(d.v)
					idx := int(out.idx[di])
					if idx >= len(st.tokens) || st.tokens[idx] != d.t {
						// The scan-time position went stale (an earlier
						// merge-swap by this worker moved the token); fall back
						// to a lookup.
						idx = st.indexOf(d.t)
					}
					if idx < st.delivered {
						live = false
					} else {
						// Exact per-delivery accounting: every non-self edge
						// was one delivery attempt, every self-edge one
						// redundant skip.
						acc.delivered += int64(out.edgeCnt[di] - out.selfCnt[di])
						acc.redundant += int64(out.selfCnt[di])
						if idx != st.delivered {
							st.swapTokens(idx, st.delivered)
						}
						st.delivered++
					}
				}
				if !live {
					acc.redundant++
				}
				out.live[di] = live
			}
			// Destination-side inserts: the first proposal of a (dest,
			// token) pair in replay order finds the token absent and inserts
			// it. A dead delivery never wins — its live duplicate precedes it
			// in replay order with the identical proposal list, so membership
			// rejects every one of its proposals, and scan-dead deliveries
			// record no proposals at all — so no liveness check is needed
			// here (and none is possible: the source owner may not have
			// reached this delivery yet).
			for pi := pstart; pi < pend; pi++ {
				w := out.dests[pi]
				sh := shardOfRep(w)
				if nw > 1 && int(sh)%nw != wi {
					continue
				}
				ws := s.state(w)
				won := !ws.hasToken(d.t)
				if won {
					ws.appendToken(d.t)
					if sh != c.shard {
						acc.crossShard++
					}
				}
				out.won[pi] = won
			}
			pstart = pend
		}
	}
}

// applyPushChunk performs worker wi's owned share of a push chunk: token
// inserts into each task's destination, with the inline addEdge push's
// exact accounting — every token of the frozen prefix was one delivery
// attempt (accumulated by the destination's owner so it is added exactly
// once).
func (p *parallelEngine) applyPushChunk(s *solver, c chunkRef, out *chunkOut, acc *applyAcc, wi, nw int) {
	tasks := p.pushActive[c.lo:c.hi]
	pstart := int32(0)
	for ti := range tasks {
		tk := tasks[ti]
		pend := out.pushEnds[ti]
		sh := shardOfRep(tk.to)
		if nw > 1 && int(sh)%nw != wi {
			pstart = pend
			continue
		}
		dst := s.state(tk.to)
		shFrom := shardOfRep(tk.from)
		for pi := pstart; pi < pend; pi++ {
			t := out.pushToks[pi]
			won := !dst.hasToken(t)
			if won {
				dst.appendToken(t)
				if sh != shFrom {
					acc.crossShard++
				}
			}
			out.pushWon[pi] = won
		}
		acc.delivered += int64(tk.lim)
		pstart = pend
	}
}

// tail is the serial reconciliation of one epoch: it replays the epoch in
// the fixed order (shards ascending, per-shard sequence order). Per live
// delivery: won inserts are scheduled on the delivery queue (in slot
// order, so next epoch's frontier order is scheduling-independent), and
// the delivery's triggers fire — each against the epoch-advanced state, with the
// scan-frozen trigger count guaranteeing exactly-once firing (triggers
// registered during this very tail replayed the advanced prefix at
// registration instead). All mutation of analyzer state and all
// order-sensitive solver mutation happens here, on the solver goroutine.
func (p *parallelEngine) tail(s *solver) {
	t0 := time.Now()
	// Triggers fired below may add edges; their prefix pushes are deferred
	// into next epoch's scan (see addEdge).
	p.deferPush = true
	defer func() {
		p.deferPush = false
		p.stats.TailNS += time.Since(t0).Nanoseconds()
	}()
	for ci := range p.chunks {
		c := p.chunks[ci]
		out := &p.outs[ci]
		if c.kind == chunkPush {
			p.tailPushChunk(s, c, out)
			continue
		}
		f := p.shardFrontier[c.shard][c.lo:c.hi]
		pstart := int32(0)
		for di := range f {
			d := f[di]
			pend := out.ends[di]
			if !out.live[di] {
				// Redundant (skip already accounted by the apply pass);
				// duplicates carry identical proposals, so nothing is lost.
				pstart = pend
				continue
			}
			for pi := pstart; pi < pend; pi++ {
				if out.won[pi] {
					// Inserted by the apply pass; schedule its processing.
					s.queue = append(s.queue, delivery{out.dests[pi], d.t})
				}
			}
			pstart = pend
			// Trigger snapshot from scan time: triggers registered since (by
			// this tail's own triggers) already saw d.t through the
			// registration-time replay of the epoch-advanced prefix.
			st := s.state(d.v)
			n := int(out.trig[di])
			for i := 0; i < n; i++ {
				st.triggers[i](d.t)
			}
		}
	}
}

// tailPushChunk schedules a push chunk's won inserts, in task order.
func (p *parallelEngine) tailPushChunk(s *solver, c chunkRef, out *chunkOut) {
	tasks := p.pushActive[c.lo:c.hi]
	pstart := int32(0)
	for ti := range tasks {
		tk := tasks[ti]
		pend := out.pushEnds[ti]
		for pi := pstart; pi < pend; pi++ {
			if out.pushWon[pi] {
				s.queue = append(s.queue, delivery{tk.to, out.pushToks[pi]})
			}
		}
		pstart = pend
	}
}

// parallelStats snapshots the epoch engine's counters so far.
func (s *solver) parallelStats() ParallelSolveStats { return s.par.stats }
