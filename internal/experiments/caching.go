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
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/hints"
	"repro/internal/static"
)

// schemaVersion is folded into every artifact key; bump it whenever the
// record shapes below change so stale encodings become misses.
const schemaVersion = "v1"

// approxRecord is the cached pre-analysis of one project fingerprint.
type approxRecord struct {
	HintCount    int
	VisitedRatio float64
	DurationNS   int64
	HintsJSON    []byte
}

// outcomeRecord is the cached full evaluation of one benchmark. Reachable
// sets are stored sorted so encoding is deterministic.
type outcomeRecord struct {
	Name  string
	Stats corpus.Stats

	HintCount    int
	VisitedRatio float64

	ApproxNS, BaselineNS, ExtendedNS int64

	Base, Ext callgraph.Metrics

	HasDynCG bool
	DynEdges int
	BaseAcc  callgraph.Accuracy
	ExtAcc   callgraph.Accuracy

	BaseReach, ExtReach []callgraph.FuncID

	BaseCondensation [][]static.Var

	HasAbl   bool
	AblEdges int
	AblMono  float64
	AblPrec  float64
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

// loadApprox returns the cached pre-analysis, or ok=false on any miss.
func loadApprox(store *cache.Store, key string) (rec approxRecord, h *hints.Hints, ok bool) {
	payload, ok := store.Get(cache.KindHints, key)
	if !ok {
		return rec, nil, false
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return rec, nil, false
	}
	h, err := hints.ReadJSON(bytes.NewReader(rec.HintsJSON))
	if err != nil {
		return rec, nil, false
	}
	return rec, h, true
}

// storeApprox caches a fault-free pre-analysis.
func storeApprox(store *cache.Store, key string, hintCount int, visited float64, d time.Duration, h *hints.Hints) {
	var hj bytes.Buffer
	if err := h.WriteJSON(&hj); err != nil {
		return
	}
	rec := approxRecord{HintCount: hintCount, VisitedRatio: visited, DurationNS: int64(d), HintsJSON: hj.Bytes()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return
	}
	_ = store.Put(cache.KindHints, key, buf.Bytes())
}

// loadOutcome reconstructs a benchmark's Outcome from the cache, or
// returns ok=false on any miss (including a name mismatch, which would
// indicate a fingerprint collision and must never serve a wrong record).
func loadOutcome(store *cache.Store, key string, b *corpus.Benchmark) (*Outcome, bool) {
	payload, ok := store.Get(cache.KindOutcome, key)
	if !ok {
		return nil, false
	}
	var rec outcomeRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, false
	}
	if rec.Name != b.Project.Name {
		return nil, false
	}
	out := &Outcome{
		Name:         rec.Name,
		Stats:        rec.Stats,
		HintCount:    rec.HintCount,
		VisitedRatio: rec.VisitedRatio,
		ApproxTime:   time.Duration(rec.ApproxNS),
		BaselineTime: time.Duration(rec.BaselineNS),
		ExtendedTime: time.Duration(rec.ExtendedNS),
		Base:         rec.Base,
		Ext:          rec.Ext,
		HasDynCG:     rec.HasDynCG,
		DynEdges:     rec.DynEdges,
		BaseAcc:      rec.BaseAcc,
		ExtAcc:       rec.ExtAcc,

		baseReach:        make(map[callgraph.FuncID]bool, len(rec.BaseReach)),
		extReach:         make(map[callgraph.FuncID]bool, len(rec.ExtReach)),
		baseCondensation: rec.BaseCondensation,
		hasAbl:           rec.HasAbl,
		ablEdges:         rec.AblEdges,
		ablMono:          rec.AblMono,
		ablPrec:          rec.AblPrec,
	}
	for _, f := range rec.BaseReach {
		out.baseReach[f] = true
	}
	for _, f := range rec.ExtReach {
		out.extReach[f] = true
	}
	return out, true
}

// storeOutcome caches a completed benchmark evaluation. Callers only
// invoke it for fault-free runs.
func storeOutcome(store *cache.Store, key string, out *Outcome) {
	rec := outcomeRecord{
		Name:             out.Name,
		Stats:            out.Stats,
		HintCount:        out.HintCount,
		VisitedRatio:     out.VisitedRatio,
		ApproxNS:         int64(out.ApproxTime),
		BaselineNS:       int64(out.BaselineTime),
		ExtendedNS:       int64(out.ExtendedTime),
		Base:             out.Base,
		Ext:              out.Ext,
		HasDynCG:         out.HasDynCG,
		DynEdges:         out.DynEdges,
		BaseAcc:          out.BaseAcc,
		ExtAcc:           out.ExtAcc,
		BaseReach:        sortedFuncs(out.baseReach),
		ExtReach:         sortedFuncs(out.extReach),
		BaseCondensation: out.baseCondensation,
		HasAbl:           out.hasAbl,
		AblEdges:         out.ablEdges,
		AblMono:          out.ablMono,
		AblPrec:          out.ablPrec,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return
	}
	_ = store.Put(cache.KindOutcome, key, buf.Bytes())
}

func sortedFuncs(set map[callgraph.FuncID]bool) []callgraph.FuncID {
	out := make([]callgraph.FuncID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
