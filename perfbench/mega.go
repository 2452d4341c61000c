package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/corpus"
	"repro/internal/static"
)

const (
	// megaModules sizes the mega-tier project: large enough for the epoch
	// engine's concurrent sweeps to launch, small enough for a run to hold
	// the hundred-plus ops op_p90_ms needs.
	megaModules = 150
	// megaOpsPerSecond sizes mega-solve runs: ops per --seconds on the
	// reference 2-core host.
	megaOpsPerSecond = 14
)

// megaCounters are the deterministic effort and structure counters of one
// mega-tier solve; every op must reproduce the first op's.
type megaCounters struct {
	Iterations, Tokens                     int64
	Structure                              static.StructureStats
	Epochs, CrossShard, AsyncSweeps, Edges int64
}

func runMegaSolve(cfg config) (*runStats, error) {
	st := &runStats{}
	opts := static.Options{Mode: static.Baseline, SolverWorkers: 1}
	// Set-up: build the input and warm the solver with one unmeasured op.
	for r := 0; r < setupReps[cfg.workload]; r++ {
		start := time.Now()
		if _, err := static.Analyze(corpus.Mega(megaModules).Project, opts); err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, time.Since(start).Seconds())
	}

	n := megaOpsPerSecond * cfg.seconds
	var want *megaCounters
	e0 := readEffort()
	untraced := megaArm(nil, n, opts, &want)
	eff := readEffort().sub(e0)
	st.opMS, st.attempted, st.failed = untraced.opMS, n, untraced.failed
	st.counters = eff.exact()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	st.peakRSSMB = rss
	if !cfg.trace {
		return st, nil
	}

	st.layers = map[string]float64{"experiments.live_heap_mb": liveHeapMB()}
	e1 := readEffort()
	traced := megaArm(newTracer(), n, opts, &want)
	teff := readEffort().sub(e1)
	st.attempted += n
	st.failed += traced.failed
	if !reflect.DeepEqual(teff.exact(), eff.exact()) {
		st.checkErr = fmt.Errorf("traced counters %v differ from untraced %v", teff.exact(), eff.exact())
	}
	fn := float64(n)
	teff.layers(st.layers)
	st.layers["static.solve_ms"] = traced.solveMS / fn
	st.layers["static.scan_ms"] = teff.ScanMS / fn
	st.layers["static.apply_ms"] = teff.ApplyMS / fn
	st.layers["static.tail_ms"] = teff.TailMS / fn
	st.layers["static.sweep_overlap_ms"] = teff.OverlapMS / fn
	st.layers["parse.kb_per_ms"] = traced.parseBytes / 1024 / traced.parseMS
	finishTrace(cfg, st, traced.tr, untraced.opMS, traced.opMS)
	return st, nil
}

type megaRun struct {
	tr                  *tracer
	opMS                []float64
	failed              int
	solveMS             float64
	parseBytes, parseMS float64
}

// megaArm runs n baseline solves of a freshly built mega-tier project
// (building is not timed) and checks every op's counters against the
// first op's.
func megaArm(tr *tracer, n int, opts static.Options, want **megaCounters) *megaRun {
	r := &megaRun{tr: tr}
	for i := 0; i < n; i++ {
		b := corpus.Mega(megaModules)
		var res *static.Result
		var err error
		var ph0 phaseMS
		if tr != nil {
			ph0 = readPhases()
		}
		start := time.Now()
		tr.opSpan(i, func() {
			tr.do("static", func() { res, err = static.Analyze(b.Project, opts) })
		})
		r.opMS = append(r.opMS, msSince(start))
		if tr != nil {
			r.parseMS += readPhases()[0] - ph0[0]
			r.parseBytes += float64(b.Project.CodeSize())
		}
		if err == nil {
			r.solveMS += float64(res.SolveWall.Nanoseconds()) / 1e6
			got := megaCounters{
				Iterations: res.SolveIterations, Tokens: res.TokensDelivered, Structure: res.Structure,
				Epochs: res.Parallel.Epochs, CrossShard: res.Parallel.CrossShard,
				AsyncSweeps: res.Parallel.AsyncSweeps, Edges: int64(res.Graph.NumEdges()),
			}
			switch {
			case len(res.Faults) > 0:
				err = fmt.Errorf("%d faults", len(res.Faults))
			case *want == nil:
				*want = &got
			case got != **want:
				err = fmt.Errorf("counters %+v differ from the first op's %+v", got, **want)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: mega-solve:", err)
			r.failed++
		}
	}
	return r
}
