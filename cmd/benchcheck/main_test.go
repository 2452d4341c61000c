package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/perf"
)

// refBench is a healthy snapshot of all three workloads measured with
// GOMAXPROCS procs: every gate passes when it is compared with itself.
func refBench(procs int) perf.Bench {
	host := perf.Host{GOMAXPROCS: procs, NumCPU: procs, GoVersion: "go1.24.0"}
	corpus := perf.Row{Workload: perf.WorkloadCorpus, Host: host}
	corpus.Parses, corpus.SolveIterations, corpus.TokensDelivered = 2545, 442305, 481038
	corpus.CyclesCollapsed, corpus.VarsUnified, corpus.EdgesDeduped = 8761, 58562, 126241

	delta := func(arm string, wall float64, tokens, misses, parses int64) perf.Row {
		r := perf.Row{Workload: perf.WorkloadDelta, Arm: arm, Host: host}
		r.WallMS, r.TokensDelivered, r.CacheMisses, r.Parses = wall, tokens, misses, parses
		return r
	}
	mega := func(w int, wall, scan, apply, tail float64) perf.Row {
		r := perf.Row{Workload: perf.WorkloadMega, Arm: fmt.Sprintf("w%d", w), SolverWorkers: w, Host: host}
		r.WallMS, r.SolverScanMS, r.SolverApplyMS, r.SolverTailMS = wall, scan, apply, tail
		r.TokensDelivered, r.SolveIterations, r.CyclesCollapsed, r.SolverEpochs = 31624385, 1694600, 500, 534
		r.SolverSweepVisited = 491160
		return r
	}
	return perf.Bench{Rows: []perf.Row{
		corpus,
		delta("cold", 4000, 455428, 1573, 1291),
		delta("warm", 20, 0, 0, 0),
		delta("edit-warm", 45, 935, 3, 1),
		mega(1, 1000, 600, 150, 200),
		mega(2, 600, 300, 80, 120),
		mega(4, 400, 150, 40, 80),
	}}
}

// clone copies a bench so a case can edit its rows.
func clone(b perf.Bench) perf.Bench {
	return perf.Bench{Rows: append([]perf.Row(nil), b.Rows...)}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		edit  func(got *perf.Bench)
		// fail lists the gates that must regress (substring match); none
		// means every gate must pass.
		fail []string
		// skip lists the gates that must report skipped.
		skip []string
	}{
		{name: "identical", procs: 4, edit: func(*perf.Bench) {}},
		{
			name: "tokens +11%", procs: 4,
			edit: func(b *perf.Bench) { b.Row("corpus").TokensDelivered = 533952 },
			fail: []string{"[corpus] tokens_delivered"},
		},
		{
			name: "tokens -11%", procs: 4,
			edit: func(b *perf.Bench) { b.Row("corpus").TokensDelivered = 428124 },
		},
		{
			name: "vars_unified -11%", procs: 4,
			edit: func(b *perf.Bench) { b.Row("corpus").VarsUnified = 52120 },
			fail: []string{"[corpus] vars_unified"},
		},
		{
			name: "vars_unified +11%", procs: 4,
			edit: func(b *perf.Bench) { b.Row("corpus").VarsUnified = 65004 },
			fail: []string{"[corpus] vars_unified"},
		},
		{
			name: "whole-graph cycle sweeps", procs: 4,
			edit: func(b *perf.Bench) { b.Row("mega/w1").SolverSweepVisited = 17028955 },
			fail: []string{"[mega/w1] solver_sweep_visited"},
		},
		{
			name: "fewer representatives swept", procs: 4,
			edit: func(b *perf.Bench) { b.Row("mega/w1").SolverSweepVisited = 400000 },
		},
		{
			name: "missing mega/w4", procs: 4,
			edit: func(b *perf.Bench) { b.Rows = b.Rows[:len(b.Rows)-1] },
			fail: []string{"[mega/w4]", "mega speedup", "mega parallel share", "mega serial share", "mega barrier scale"},
		},
		{
			name: "warm row with one cache miss", procs: 4,
			edit: func(b *perf.Bench) { b.Row("delta/warm").CacheMisses = 1 },
			fail: []string{"[delta/warm] cache_misses"},
		},
		{
			name: "slow warm run", procs: 2,
			edit: func(b *perf.Bench) { b.Row("delta/warm").WallMS = 1000 },
			fail: []string{"delta speedup cold/warm"},
			skip: []string{"mega speedup", "mega parallel share", "mega serial share", "mega barrier scale"},
		},
		{
			name: "no mega scaling at GOMAXPROCS 2", procs: 2,
			edit: flatMega,
			skip: []string{"mega speedup", "mega parallel share", "mega serial share", "mega barrier scale"},
		},
		{
			name: "no mega scaling at GOMAXPROCS 4", procs: 4,
			edit: flatMega,
			fail: []string{"mega speedup", "mega parallel share", "mega serial share", "mega barrier scale"},
		},
		{
			name: "corpus-only candidate", procs: 4,
			edit: func(b *perf.Bench) { b.Rows = b.Rows[:1] },
		},
		{
			name: "empty candidate", procs: 4,
			edit: func(b *perf.Bench) { b.Rows = nil },
			fail: []string{"GOT"},
		},
		{
			name: "workload missing from REF", procs: 4,
			edit: func(b *perf.Bench) { b.Rows = append(b.Rows, perf.Row{Workload: "daemon"}) },
			fail: []string{"[daemon]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := refBench(tc.procs)
			got := clone(ref)
			tc.edit(&got)
			fs := compare(ref, got)
			if len(fs) == 0 {
				t.Fatal("no findings")
			}
			for _, f := range fs {
				wantFail, wantSkip := matches(f.gate, tc.fail), matches(f.gate, tc.skip)
				if (f.status == regression) != wantFail || (f.status == skipped) != wantSkip {
					t.Errorf("%s: %s %s", f.gate, f.detail, f.status)
				}
			}
			for _, g := range append(append([]string(nil), tc.fail...), tc.skip...) {
				if !hasGate(fs, g) {
					t.Errorf("no finding for gate %q", g)
				}
			}
		})
	}
}

// TestSkippedMegaGatesPrintRatios checks that a mega gate skipped on a
// small host still reports the ratio it computed, with its bound.
func TestSkippedMegaGatesPrintRatios(t *testing.T) {
	ref := refBench(2)
	// w1: wall 1000, scan 600, apply 150, tail 200; w4: wall 400, apply 40,
	// tail 80.
	want := map[string]string{
		"mega speedup w1/w4":       "2.50 (want >= 2.00)",
		"mega parallel share":      "0.75 (want >= 0.60)",
		"mega serial share":        "0.25 (want <= 0.40)",
		"mega barrier scale w4/w1": "0.34 (want <= 0.60)",
	}
	seen := 0
	for _, f := range compare(ref, clone(ref)) {
		w, ok := want[f.gate]
		if !ok {
			continue
		}
		seen++
		if f.status != skipped || !strings.HasPrefix(f.detail, w) || !strings.Contains(f.detail, "GOMAXPROCS=2") {
			t.Errorf("%s: %q %s, want skipped with %q and the host's GOMAXPROCS", f.gate, f.detail, f.status, w)
		}
	}
	if seen != len(want) {
		t.Errorf("%d mega gate findings, want %d", seen, len(want))
	}
}

// flatMega makes the w4 mega row as slow as w1, with most of the w1 solve
// in the serial tail.
func flatMega(b *perf.Bench) {
	w1, w4 := b.Row("mega/w1"), b.Row("mega/w4")
	w1.SolverScanMS, w1.SolverApplyMS, w1.SolverTailMS = 300, 100, 550
	*w4 = *w1
	w4.Arm, w4.SolverWorkers = "w4", 4
}

func matches(gate string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(gate, s) {
			return true
		}
	}
	return false
}

func hasGate(fs []finding, sub string) bool {
	for _, f := range fs {
		if strings.Contains(f.gate, sub) {
			return true
		}
	}
	return false
}
