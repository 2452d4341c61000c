package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/perf"
	"repro/internal/static"
)

// DefaultMegaWorkers are the worker-count arms of the standard mega-tier
// scaling run: the epoch engine at 1, 2, and 4 scan workers.
var DefaultMegaWorkers = []int{1, 2, 4}

// RunMegaBench runs the solver-scaling benchmark: one baseline analysis of
// the mega-project tier (corpus.Mega) per worker count, one mega row of the
// bench snapshot each. Every arm rebuilds the project from scratch so no
// parse cache or solver state leaks between arms.
//
// The epoch engine is deterministic across worker counts by construction, so
// the effort and structure counters of every row must agree exactly;
// RunMegaBench returns an error (rather than a snapshot) when they do not,
// making any nondeterminism a hard failure of the benchmark itself. Wall
// times and scheduling diagnostics (phase splits) are the only fields
// allowed to vary.
func RunMegaBench(nModules int, workers []int) (*perf.Bench, error) {
	if len(workers) == 0 {
		workers = DefaultMegaWorkers
	}
	bench := &perf.Bench{}
	deterministic := func(s *perf.Snapshot) [7]int64 {
		return [7]int64{s.SolveIterations, s.TokensDelivered, s.CyclesCollapsed, s.RedundantSkipped,
			s.SolverEpochs, s.SolverCrossShard, s.SolverSweepVisited}
	}
	for _, w := range workers {
		b := corpus.Mega(nModules)
		res, err := static.Analyze(b.Project, static.Options{Mode: static.Baseline, SolverWorkers: w})
		if err != nil {
			return nil, fmt.Errorf("mega workers=%d: %w", w, err)
		}
		row := perf.Row{
			Workload:      perf.WorkloadMega,
			Arm:           fmt.Sprintf("w%d", w),
			SolverWorkers: w,
			Host:          perf.ThisHost(),
			Snapshot: perf.Snapshot{
				WallMS:             float64(res.SolveWall.Microseconds()) / 1000,
				SolverScanMS:       float64(res.Parallel.ScanNS) / 1e6,
				SolverApplyMS:      float64(res.Parallel.ApplyNS) / 1e6,
				SolverTailMS:       float64(res.Parallel.TailNS) / 1e6,
				SolverSweepMS:      float64(res.Parallel.SweepNS) / 1e6,
				SolverEpochs:       res.Parallel.Epochs,
				SolverCrossShard:   res.Parallel.CrossShard,
				SolverSweepVisited: res.Parallel.SweepVisited,
				SolveIterations:    res.SolveIterations,
				TokensDelivered:    res.TokensDelivered,
				CyclesCollapsed:    res.Structure.CyclesCollapsed,
				RedundantSkipped:   res.Structure.RedundantSkipped,
			},
		}
		if len(bench.Rows) > 0 {
			if ref := &bench.Rows[0]; deterministic(&row.Snapshot) != deterministic(&ref.Snapshot) {
				return nil, fmt.Errorf(
					"mega workers=%d: deterministic counters diverged from workers=%d: %+v vs %+v",
					w, ref.SolverWorkers, row.Snapshot, ref.Snapshot)
			}
		}
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}
