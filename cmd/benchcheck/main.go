// Command benchcheck compares a candidate bench snapshot against the
// committed one and fails when the analysis regressed.
//
// Usage:
//
//	benchcheck REF GOT
//
// REF and GOT are bench snapshots (perf.Bench) written by cmd/evaluate
// -benchjson; the committed REF is BENCH.json. Only the workloads present
// in GOT are checked, so a candidate holding just the corpus row is
// compared on that row alone:
//
//   - GOT must hold rows, REF must hold rows of every workload in GOT, and
//     every REF row of those workloads must be present in GOT;
//
//   - effort counters (tokens_delivered, solve_iterations, parses,
//     cache_misses, solver_sweep_visited) are one-sided: GOT may not
//     exceed REF by more than the tolerance, and doing less work is fine.
//     solver_sweep_visited is how a fall back to whole-graph cycle sweeps
//     shows;
//
//   - structure counters (cycles_collapsed, vars_unified, ...) are
//     two-sided: the solver's cycle collapsing drifting in either
//     direction changes what the benchmark measures, even when the effort
//     went down;
//
//   - a REF value of 0 allows only 0. This is how the delta warm row stays
//     fully cached: zero misses, zero parses, zero solver effort;
//
//   - cache_bytes_written is deliberately ungated: outcome records encode
//     wall-clock durations as varints, so the byte count changes between
//     runs of the same code;
//
//   - wall-time ratios are taken within GOT, whose rows come from one run
//     on one host: the delta cold/warm and cold/edit-warm speedups, and
//     the mega-tier scaling gates (w1/w4 speedup, parallel and serial
//     share of the w1 solve, w4/w1 apply+tail barrier scale). The mega
//     gates need wall-clock overlap, so they skip, loudly, on rows measured
//     with GOMAXPROCS < 4: with fewer cores the four scan and apply
//     workers cannot all run at once and no speedup can show. A skipped
//     gate still prints its ratio and bound.
//
// The per-workload determinism checks (mega rows identical across worker
// counts, delta reports byte-identical to a from-scratch run) are hard
// failures of experiments.RunMegaBench and experiments.RunDeltaBench,
// before any snapshot is written.
//
// Exit status: 0 when every gate holds, 1 on a regression, 2 on a usage
// or I/O error.
package main

import (
	"fmt"
	"os"

	"repro/internal/perf"
)

const (
	// tolerance is the allowed fractional counter drift against REF.
	tolerance = 0.10
	// minOverlapProcs is the GOMAXPROCS below which the mega scaling gates
	// skip.
	minOverlapProcs = 4

	minMegaSpeedup   = 2.0 // mega w1 / w4 solve wall
	minParallelShare = 0.6 // mega w1 scan+apply wall / solve wall
	maxSerialShare   = 0.4 // mega w1 solve wall outside scan+apply / solve wall
	maxBarrierScale  = 0.6 // mega w4 apply+tail wall / w1 apply+tail wall
	minDeltaSpeedup  = 5.0 // delta cold wall / warm wall, and / edit-warm wall
)

// Verdicts of a finding.
const (
	ok         = "ok"
	skipped    = "skipped"
	regression = "REGRESSION"
)

// finding is one gate's verdict.
type finding struct {
	gate, detail, status string
}

type counter struct {
	name string
	get  func(*perf.Row) int64
}

var (
	effortCounters = []counter{
		{"tokens_delivered", func(r *perf.Row) int64 { return r.TokensDelivered }},
		{"solve_iterations", func(r *perf.Row) int64 { return r.SolveIterations }},
		{"parses", func(r *perf.Row) int64 { return r.Parses }},
		{"cache_misses", func(r *perf.Row) int64 { return r.CacheMisses }},
		{"solver_sweep_visited", func(r *perf.Row) int64 { return r.SolverSweepVisited }},
	}
	structureCounters = []counter{
		{"cycles_collapsed", func(r *perf.Row) int64 { return r.CyclesCollapsed }},
		{"vars_unified", func(r *perf.Row) int64 { return r.VarsUnified }},
		{"edges_deduped", func(r *perf.Row) int64 { return r.EdgesDeduped }},
		{"redundant_deliveries_skipped", func(r *perf.Row) int64 { return r.RedundantSkipped }},
		{"solver_epochs", func(r *perf.Row) int64 { return r.SolverEpochs }},
	}
)

// compare runs every gate of GOT against REF.
func compare(ref, got perf.Bench) []finding {
	if len(got.Rows) == 0 {
		return []finding{{"GOT", "has no rows", regression}}
	}
	present, inRef := map[string]bool{}, map[string]bool{}
	for _, r := range ref.Rows {
		inRef[r.Workload] = true
	}
	var fs []finding
	for _, r := range got.Rows {
		if !present[r.Workload] && !inRef[r.Workload] {
			fs = append(fs, finding{"[" + r.Workload + "]", "no rows of this workload in REF", regression})
		}
		present[r.Workload] = true
	}
	for i := range ref.Rows {
		rr := &ref.Rows[i]
		if !present[rr.Workload] {
			continue
		}
		gr := got.Row(rr.Name())
		if gr == nil {
			fs = append(fs, finding{"[" + rr.Name() + "]", "missing from GOT", regression})
			continue
		}
		for _, c := range effortCounters {
			fs = counterGate(fs, rr, gr, c, true)
		}
		for _, c := range structureCounters {
			fs = counterGate(fs, rr, gr, c, false)
		}
	}
	if present[perf.WorkloadDelta] {
		fs = deltaGates(fs, got)
	}
	if present[perf.WorkloadMega] {
		fs = megaGates(fs, got)
	}
	return fs
}

// counterGate compares one counter of a row. oneSided fails only on an
// increase; two-sided fails on drift in either direction.
func counterGate(fs []finding, ref, got *perf.Row, c counter, oneSided bool) []finding {
	refV, gotV := c.get(ref), c.get(got)
	if refV == 0 && gotV == 0 {
		return fs // neither side has this counter
	}
	lo, hi := float64(refV)*(1-tolerance), float64(refV)*(1+tolerance)
	status := ok
	if float64(gotV) > hi || (!oneSided && float64(gotV) < lo) {
		status = regression
	}
	bound := fmt.Sprintf("limit %.0f", hi)
	if !oneSided {
		bound = fmt.Sprintf("band %.0f..%.0f", lo, hi)
	}
	return append(fs, finding{
		fmt.Sprintf("[%s] %s", ref.Name(), c.name),
		fmt.Sprintf("ref %d  got %d  (%s)", refV, gotV, bound),
		status,
	})
}

// ratioGate checks v against a floor (atLeast) or a ceiling.
func ratioGate(fs []finding, gate string, v, bound float64, atLeast bool) []finding {
	status, want := ok, ">="
	if !atLeast {
		want = "<="
	}
	if (atLeast && !(v >= bound)) || (!atLeast && !(v <= bound)) {
		status = regression
	}
	return append(fs, finding{gate, fmt.Sprintf("%.2f (want %s %.2f)", v, want, bound), status})
}

func deltaGates(fs []finding, got perf.Bench) []finding {
	cold := got.Row("delta/cold")
	for _, arm := range []string{"warm", "edit-warm"} {
		gate := "delta speedup cold/" + arm
		r := got.Row("delta/" + arm)
		if cold == nil || r == nil {
			fs = append(fs, finding{gate, "no cold or " + arm + " row in GOT", regression})
			continue
		}
		fs = ratioGate(fs, gate, cold.WallMS/r.WallMS, minDeltaSpeedup, true)
	}
	return fs
}

func megaGates(fs []finding, got perf.Bench) []finding {
	gates := []string{"mega speedup w1/w4", "mega parallel share", "mega serial share", "mega barrier scale w4/w1"}
	r1, r4 := got.Row("mega/w1"), got.Row("mega/w4")
	if r1 == nil || r4 == nil {
		for _, g := range gates {
			fs = append(fs, finding{g, "no w1 or w4 row in GOT", regression})
		}
		return fs
	}
	parallel := (r1.SolverScanMS + r1.SolverApplyMS) / r1.WallMS
	n := len(fs)
	fs = ratioGate(fs, gates[0], r1.WallMS/r4.WallMS, minMegaSpeedup, true)
	fs = ratioGate(fs, gates[1], parallel, minParallelShare, true)
	fs = ratioGate(fs, gates[2], 1-parallel, maxSerialShare, false)
	fs = ratioGate(fs, gates[3],
		(r4.SolverApplyMS+r4.SolverTailMS)/(r1.SolverApplyMS+r1.SolverTailMS), maxBarrierScale, false)
	if procs := min(r1.Host.GOMAXPROCS, r4.Host.GOMAXPROCS); procs < minOverlapProcs {
		// The ratios are still printed, so a run on a small host shows
		// how far they are from their bounds.
		for i := n; i < len(fs); i++ {
			fs[i].detail += fmt.Sprintf("; measured with GOMAXPROCS=%d < %d", procs, minOverlapProcs)
			fs[i].status = skipped
		}
	}
	return fs
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck REF GOT")
		os.Exit(2)
	}
	ref, err := perf.ReadBench(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: ref:", err)
		os.Exit(2)
	}
	got, err := perf.ReadBench(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: got:", err)
		os.Exit(2)
	}
	fmt.Printf("%s vs %s:\n", os.Args[1], os.Args[2])
	failed := false
	for _, f := range compare(ref, got) {
		fmt.Printf("  %-46s %s  %s\n", f.gate, f.detail, f.status)
		failed = failed || f.status == regression
	}
	if failed {
		fmt.Println("benchcheck: regressed beyond the bounds")
		os.Exit(1)
	}
}
