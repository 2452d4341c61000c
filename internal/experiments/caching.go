// Persistent-cache integration for the corpus driver. Two artifact layers
// ride on internal/cache's content-addressed store:
//
//   - an approx record per (project fingerprint, approx options): the hint
//     set plus the pre-analysis statistics an Outcome needs, letting a run
//     whose static options changed still skip the interpreter;
//
//   - an outcome record per (project fingerprint, pipeline options): the
//     complete evaluation record of one benchmark — metrics, accuracy,
//     reachable sets, phase durations — letting an unchanged project skip
//     every phase including the solve and the dynamic call graph.
//
// Both layers cache only fault-free runs (a degraded module must never
// poison reuse) and key on fingerprints that cover every input the artifact
// depends on, so a hit reconstructs exactly what recomputation would have
// produced; phase durations are stored too, which is what makes warm-run
// reports (including the timing tables) byte-identical to the cold run
// that populated the cache.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/hints"
)

// schemaVersion is folded into every artifact key; bump it whenever the
// record layouts below change so stale encodings become misses.
const schemaVersion = "v4"

// approxRecord is the cached pre-analysis of one project fingerprint.
type approxRecord struct {
	HintCount    int
	VisitedRatio float64
	DurationNS   int64
	HintsJSON    []byte
}

// approxKey is the artifact key of a project's pre-analysis: the approx
// phase depends on the project content and the per-item deadline.
func approxKey(fp string, opts Options) string {
	return cache.Fingerprint("approx", schemaVersion, fp, opts.ApproxDeadline.String())
}

// outcomeKey is the artifact key of a full benchmark evaluation. It covers
// every option that shapes the Outcome; Workers and SolverWorkers are
// excluded because outcomes are proven identical across both (PR 1/PR 6
// determinism guarantees, asserted corpus-wide in CI).
func outcomeKey(fp string, opts Options, b *corpus.Benchmark) string {
	return cache.Fingerprint("outcome", schemaVersion, fp,
		fmt.Sprintf("dyn=%t abl=%t", opts.WithDynCG && b.HasDynCG, opts.WithAblation),
		opts.ApproxDeadline.String(), opts.DynCGDeadline.String())
}

func encodeApprox(rec approxRecord) []byte {
	w := recWriter{buf: make([]byte, 0, 32+len(rec.HintsJSON))}
	w.int(rec.HintCount)
	w.float(rec.VisitedRatio)
	w.int(int(rec.DurationNS))
	w.bytes(rec.HintsJSON)
	return w.buf
}

// decodeApprox decodes an encodeApprox record. HintsJSON aliases payload.
func decodeApprox(payload []byte) (approxRecord, error) {
	r := recReader{buf: payload}
	rec := approxRecord{
		HintCount:    r.int(),
		VisitedRatio: r.float(),
		DurationNS:   int64(r.int()),
		HintsJSON:    r.bytes(),
	}
	return rec, r.end()
}

// loadApprox returns the cached pre-analysis, or ok=false on any miss.
func loadApprox(store *cache.Store, key string) (rec approxRecord, h *hints.Hints, ok bool) {
	ok = store.Get(cache.KindHints, key, func(payload []byte) (err error) {
		if rec, err = decodeApprox(payload); err != nil {
			return err
		}
		h, err = hints.ReadJSON(bytes.NewReader(rec.HintsJSON))
		return err
	})
	return rec, h, ok
}

// storeApprox caches a fault-free pre-analysis.
func storeApprox(store *cache.Store, key string, hintCount int, visited float64, d time.Duration, h *hints.Hints) {
	var hj bytes.Buffer
	if err := h.WriteJSON(&hj); err != nil {
		return
	}
	rec := approxRecord{HintCount: hintCount, VisitedRatio: visited, DurationNS: int64(d), HintsJSON: hj.Bytes()}
	_ = store.Put(cache.KindHints, key, encodeApprox(rec))
}

// encodeOutcome writes the cached fields of a benchmark evaluation: all of
// them but the faults and degraded modules (only clean runs are cached)
// and the dynamic call graph (never cached).
func encodeOutcome(out *Outcome) []byte {
	w := recWriter{buf: make([]byte, 0, 4096)}
	w.string(out.Name)
	st := out.Stats
	w.string(st.Name)
	w.int(st.Packages)
	w.int(st.Modules)
	w.int(st.Functions)
	w.int(st.CodeSize)
	w.bool(st.HasDynCG)
	w.int(out.HintCount)
	w.float(out.VisitedRatio)
	w.int(int(out.ApproxTime))
	w.int(int(out.BaselineTime))
	w.int(int(out.ExtendedTime))
	for _, m := range []callgraph.Metrics{out.Base, out.Ext} {
		w.int(m.CallEdges)
		w.int(m.ReachableFunctions)
		w.float(m.ResolvedPct)
		w.float(m.MonomorphicPct)
	}
	w.bool(out.HasDynCG)
	w.int(out.DynEdges)
	for _, a := range []callgraph.Accuracy{out.BaseAcc, out.ExtAcc} {
		w.float(a.Recall)
		w.float(a.Precision)
		w.int(a.DynEdges)
	}
	w.funcs(out.baseReach)
	w.funcs(out.extReach)
	w.bool(out.hasAbl)
	w.int(out.ablEdges)
	w.float(out.ablMono)
	w.float(out.ablPrec)
	return w.buf
}

// decodeOutcome decodes an encodeOutcome record.
func decodeOutcome(payload []byte) (*Outcome, error) {
	r := recReader{buf: payload}
	out := &Outcome{Name: r.string()}
	out.Stats = corpus.Stats{
		Name:      r.string(),
		Packages:  r.int(),
		Modules:   r.int(),
		Functions: r.int(),
		CodeSize:  r.int(),
		HasDynCG:  r.bool(),
	}
	out.HintCount = r.int()
	out.VisitedRatio = r.float()
	out.ApproxTime = time.Duration(r.int())
	out.BaselineTime = time.Duration(r.int())
	out.ExtendedTime = time.Duration(r.int())
	for _, m := range []*callgraph.Metrics{&out.Base, &out.Ext} {
		m.CallEdges = r.int()
		m.ReachableFunctions = r.int()
		m.ResolvedPct = r.float()
		m.MonomorphicPct = r.float()
	}
	out.HasDynCG = r.bool()
	out.DynEdges = r.int()
	for _, a := range []*callgraph.Accuracy{&out.BaseAcc, &out.ExtAcc} {
		a.Recall = r.float()
		a.Precision = r.float()
		a.DynEdges = r.int()
	}
	out.baseReach = r.funcs()
	out.extReach = r.funcs()
	out.hasAbl = r.bool()
	out.ablEdges = r.int()
	out.ablMono = r.float()
	out.ablPrec = r.float()
	return out, r.end()
}

// loadOutcome reconstructs a benchmark's Outcome from the cache, or
// returns ok=false on any miss (including a name mismatch, which would
// indicate a fingerprint collision and must never serve a wrong record).
func loadOutcome(store *cache.Store, key string, b *corpus.Benchmark) (*Outcome, bool) {
	var out *Outcome
	ok := store.Get(cache.KindOutcome, key, func(payload []byte) (err error) {
		if out, err = decodeOutcome(payload); err != nil {
			return err
		}
		if out.Name != b.Project.Name {
			return fmt.Errorf("cache record of %q under the key of %q", out.Name, b.Project.Name)
		}
		return nil
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// storeOutcome caches a completed benchmark evaluation. Callers only
// invoke it for fault-free runs.
func storeOutcome(store *cache.Store, key string, out *Outcome) {
	_ = store.Put(cache.KindOutcome, key, encodeOutcome(out))
}
