// The delta benchmark: cold vs warm vs one-file-edit corpus evaluation
// against one persistent cache directory, with the byte-identical-reports
// guarantee asserted in-harness. This is the evidence behind the cache
// architecture's two claims: a warm unchanged corpus costs only artifact
// loads, and a warm one-file edit costs one project's re-analysis plus
// artifact loads — both with reports identical to from-scratch runs.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/perf"
)

// deltaProbe is the one-file edit applied by the benchmark: appending a
// function changes the file's content hash and the project's function
// count, so the dirty project measurably re-analyzes and the edit is
// visible in the content-derived reports (Table 1's function column).
const deltaProbe = "\nfunction __deltaProbe() { return __deltaProbe; }\n"

// applyDeltaEdit edits the first benchmark with an editable main entry and
// returns its project name and the edited path.
func applyDeltaEdit(bs []*corpus.Benchmark) (project, file string) {
	for _, b := range bs {
		if len(b.Project.MainEntries) == 0 {
			continue
		}
		path := b.Project.MainEntries[0]
		if src, ok := b.Project.Files[path]; ok {
			b.Project.Files[path] = src + deltaProbe
			return b.Project.Name, path
		}
	}
	return "", ""
}

// renderContentReports renders every content-derived report of a corpus
// run into one byte buffer: Table 1, Figures 4–7, Table 2, the
// vulnerability study, hint statistics, and the summary. Timing tables
// (Table 3, scalability) are excluded on purpose — they render measured
// wall clock, which is a property of the run, not of the analyzed content,
// so they are not part of the byte-identical contract.
func renderContentReports(bs []*corpus.Benchmark, outs []*Outcome) ([]byte, error) {
	var buf bytes.Buffer
	RenderTable1(&buf, outs)
	for fig := 4; fig <= 7; fig++ {
		RenderFigure(&buf, outs, fig)
	}
	RenderTable2(&buf, outs)
	var dynBenches []*corpus.Benchmark
	for _, b := range bs {
		if b.HasDynCG {
			dynBenches = append(dynBenches, b)
		}
	}
	vr, err := VulnStudy(dynBenches, outs)
	if err != nil {
		return nil, err
	}
	RenderVuln(&buf, vr)
	RenderHintStats(&buf, outs)
	RenderSummary(&buf, Aggregate(outs))
	return buf.Bytes(), nil
}

// deltaArm runs one benchmark arm: a full corpus evaluation (fresh
// benchmark values, so no in-memory state leaks between arms) against the
// given store (nil = no cache), optionally with the one-file edit applied.
func deltaArm(arm string, store *cache.Store, edit bool, opts Options) (row perf.Row, reports []byte, err error) {
	bs := corpus.All()
	if edit {
		if project, _ := applyDeltaEdit(bs); project == "" {
			return row, nil, fmt.Errorf("delta: no editable benchmark in corpus")
		}
	}
	perf.Global().Reset()
	start := time.Now()
	runOpts := opts
	runOpts.WithDynCG = true
	runOpts.Cache = store
	outs, err := RunCorpusOpts(bs, runOpts)
	if err != nil {
		return row, nil, fmt.Errorf("delta %s: %w", arm, err)
	}
	wall := time.Since(start)
	snap := perf.Global().Snapshot()
	snap.Workers = opts.Workers
	snap.WallMS = float64(wall.Microseconds()) / 1000
	reports, err = renderContentReports(bs, outs)
	if err != nil {
		return row, nil, fmt.Errorf("delta %s: %w", arm, err)
	}
	row = perf.Row{Workload: perf.WorkloadDelta, Arm: arm, SolverWorkers: opts.SolverWorkers,
		Host: perf.ThisHost(), Snapshot: snap}
	return row, reports, nil
}

// RunDeltaBench measures the persistent cache end to end against the full
// corpus, producing the delta rows of the bench snapshot. Four arms run
// against dir (which should start empty for the cold arm to be genuinely
// cold):
//
//	cold          empty cache, full corpus — populates the store
//	warm          unchanged corpus, same store — must be all outcome hits
//	edit-warm     one file edited, same store — one project re-analyzes
//	edit-scratch  same edited corpus, no cache — the from-scratch referee
//
// Two report comparisons are asserted before a snapshot is produced, and
// a mismatch is a hard error of the benchmark itself: warm must render
// byte-identical content reports to cold (same corpus, so any drift means
// the cache served a wrong artifact), and edit-warm must render
// byte-identical content reports to edit-scratch (the delta path must be
// indistinguishable from a restart on the edited corpus).
func RunDeltaBench(dir string, opts Options) (*perf.Bench, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	cold, coldReports, err := deltaArm("cold", store, false, opts)
	if err != nil {
		return nil, err
	}
	warm, warmReports, err := deltaArm("warm", store, false, opts)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(coldReports, warmReports) {
		return nil, fmt.Errorf("delta: warm-run reports differ from cold run (cache served a wrong artifact)")
	}
	editWarm, editWarmReports, err := deltaArm("edit-warm", store, true, opts)
	if err != nil {
		return nil, err
	}
	editScratch, editScratchReports, err := deltaArm("edit-scratch", nil, true, opts)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(editWarmReports, editScratchReports) {
		return nil, fmt.Errorf("delta: edit-warm reports differ from from-scratch analysis of the edited corpus")
	}
	if bytes.Equal(coldReports, editWarmReports) {
		return nil, fmt.Errorf("delta: edit did not change the reports — the probe edit was not analyzed")
	}
	return &perf.Bench{Rows: []perf.Row{cold, warm, editWarm, editScratch}}, nil
}
