package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/perf"
)

// TestRunMegaBench runs a scaled-down mega tier across several
// epoch-engine worker counts. RunMegaBench itself fails on any counter
// divergence between rows, so this test mostly checks the snapshot's shape.
func TestRunMegaBench(t *testing.T) {
	if n := len(corpus.Mega(120).Project.Files) - 1; n < 80 {
		t.Fatalf("mega project has %d modules, want a solver-bound project", n)
	}
	snap, err := RunMegaBench(120, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(snap.Rows))
	}
	par := snap.Row("mega/w1")
	if par == nil {
		t.Fatal("missing mega/w1 row")
	}
	if par.SolverEpochs == 0 || par.SolverWorkers != 1 || par.Host.GOMAXPROCS == 0 {
		t.Fatalf("mega/w1 row lacks epochs, solver workers or host: %+v", par)
	}
	if share := (par.SolverScanMS + par.SolverApplyMS) / par.WallMS; share <= 0 || share >= 1 {
		t.Fatalf("parallel share %v outside (0, 1)", share)
	}

	// The render must be a pure function of the deterministic fields plus
	// wall times; rendering twice from the same snapshot is byte-identical.
	var a, b bytes.Buffer
	snap.Render(&a)
	snap.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot render is not deterministic")
	}
}

// TestCorpusSolverWorkersDeterministic runs a corpus slice through the full
// evaluation pipeline at the default solver setting (0) and at several
// epoch-engine worker counts, and requires the rendered report bytes, the
// outcomes and the solver-effort counters to be identical — the 0-byte
// report-diff guarantee, end to end — with the epoch engine running at
// every setting.
func TestCorpusSolverWorkersDeterministic(t *testing.T) {
	type effort struct{ iterations, tokens, epochs int64 }
	render := func(solverWorkers int) ([]byte, []*Outcome, effort) {
		before := perf.Global().Snapshot()
		outs, err := RunCorpusOpts(slice(t, 6), Options{
			WithDynCG: true, Workers: 1, SolverWorkers: solverWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		after := perf.Global().Snapshot()
		eff := effort{
			iterations: after.SolveIterations - before.SolveIterations,
			tokens:     after.TokensDelivered - before.TokensDelivered,
			epochs:     after.SolverEpochs - before.SolverEpochs,
		}
		var buf bytes.Buffer
		RenderTable1(&buf, outs)
		RenderFigure(&buf, outs, 4)
		RenderFigure(&buf, outs, 5)
		RenderFigure(&buf, outs, 6)
		RenderFigure(&buf, outs, 7)
		RenderTable2(&buf, outs)
		RenderSummary(&buf, Aggregate(outs))
		return buf.Bytes(), outs, eff
	}

	workerCounts := []int{0, 1, 2, 4, 8}
	refBytes, refOuts, refEff := render(workerCounts[0])
	if refEff.epochs == 0 {
		t.Fatalf("solver workers=%d: the epoch engine ran no epochs", workerCounts[0])
	}
	for _, workers := range workerCounts[1:] {
		gotBytes, gotOuts, gotEff := render(workers)
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("solver workers=%d: rendered report differs from solver workers=%d", workers, workerCounts[0])
		}
		for i := range refOuts {
			if !reflect.DeepEqual(strip(refOuts[i]), strip(gotOuts[i])) {
				t.Fatalf("solver workers=%d: outcome %d differs from solver workers=%d:\nref: %+v\ngot: %+v",
					workers, i, workerCounts[0], strip(refOuts[i]), strip(gotOuts[i]))
			}
		}
		if gotEff != refEff {
			t.Fatalf("solver workers=%d: effort counters %+v differ from solver workers=%d: %+v",
				workers, gotEff, workerCounts[0], refEff)
		}
	}
}
