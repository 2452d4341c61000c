package perf

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersBasic(t *testing.T) {
	var c Counters
	c.AddProject()
	c.AddParse(2 * time.Millisecond)
	c.AddParseHit()
	c.AddParseHit()
	c.AddParseHit()
	c.AddSolve(10, 25)
	c.AddPhase(PhaseApprox, 5*time.Millisecond)

	s := c.Snapshot()
	if s.Projects != 1 || s.Parses != 1 || s.ParseCacheHits != 3 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.ParseHitRate != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.ParseHitRate)
	}
	if s.SolveIterations != 10 || s.TokensDelivered != 25 {
		t.Errorf("solve counters wrong: %+v", s)
	}
	if s.PhaseMS["approx"] != 5 || s.PhaseMS["parse"] != 2 {
		t.Errorf("phase times wrong: %v", s.PhaseMS)
	}

	c.Reset()
	if s := c.Snapshot(); s.Projects != 0 || s.Parses != 0 || s.PhaseMS["approx"] != 0 {
		t.Errorf("reset did not zero: %+v", s)
	}
}

func TestIncrementalAndAllocCounters(t *testing.T) {
	var c Counters
	c.AddIncrementalSolve(100, 200, 10, 20)
	c.AddIncrementalSolve(1, 2, 3, 4)
	c.AddPhaseAlloc(PhaseBaseline, 1<<20)
	c.AddPhaseAlloc(PhaseBaseline, 1<<20)
	c.AddPhaseAlloc(PhaseExtended, 512)
	c.AddPhaseAlloc(Phase(-1), 999) // out of range: ignored

	s := c.Snapshot()
	if s.SolveIterationsBase != 101 || s.TokensDeliveredBase != 202 ||
		s.SolveIterationsDelta != 13 || s.TokensDeliveredDelta != 24 {
		t.Errorf("incremental split wrong: %+v", s)
	}
	if s.PhaseAllocBytes["baseline"] != 2<<20 || s.PhaseAllocBytes["extended"] != 512 {
		t.Errorf("phase allocs wrong: %v", s.PhaseAllocBytes)
	}

	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solve_iterations_baseline", "solve_iterations_delta", "phase_alloc_bytes"} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("JSON missing %q:\n%s", want, buf)
		}
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "resumed delta") || !strings.Contains(out.String(), "MB alloc") {
		t.Errorf("render missing incremental/alloc lines:\n%s", out.String())
	}

	c.Reset()
	if s := c.Snapshot(); s.SolveIterationsBase != 0 || s.PhaseAllocBytes != nil {
		t.Errorf("reset did not zero incremental/alloc counters: %+v", s)
	}
}

func TestTotalAllocBytesMonotone(t *testing.T) {
	a := TotalAllocBytes()
	sink := make([]byte, 1<<20)
	_ = sink
	if b := TotalAllocBytes(); b < a {
		t.Errorf("TotalAllocBytes went backwards: %d then %d", a, b)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddParse(time.Microsecond)
				c.AddParseHit()
				c.AddSolve(1, 2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Parses != 8000 || s.ParseCacheHits != 8000 || s.SolveIterations != 8000 || s.TokensDelivered != 16000 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}

func TestSnapshotJSONAndRender(t *testing.T) {
	var c Counters
	c.AddParse(time.Millisecond)
	c.AddPhaseAlloc(PhaseBaseline, 3<<20)
	s := c.Snapshot()
	s.Workers = 4
	s.WallMS = 12.5

	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != 4 || back.Parses != 1 || back.WallMS != 12.5 {
		t.Errorf("round trip wrong: %+v", back)
	}
	// Only the phase that recorded allocation reports it: parse allocation
	// is not measured, so it is absent rather than a measured 0.
	if len(back.PhaseAllocBytes) != 1 || back.PhaseAllocBytes["baseline"] != 3<<20 {
		t.Errorf("phase allocs = %v, want only baseline", back.PhaseAllocBytes)
	}

	var out strings.Builder
	s.Render(&out)
	for _, want := range []string{"workers", "parses", "solve iterations", "parse", "dyncg"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "baseline ") != strings.Contains(line, "MB alloc") {
			t.Errorf("alloc column on the wrong phase line: %q", line)
		}
	}
}

func TestMergeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	row := func(workload, arm string, tokens int64) Row {
		r := Row{Workload: workload, Arm: arm, Host: ThisHost()}
		r.TokensDelivered = tokens
		return r
	}
	if err := MergeFile(path, []Row{row(WorkloadMega, "w1", 1), row(WorkloadMega, "w4", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := MergeFile(path, []Row{row(WorkloadCorpus, "", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := MergeFile(path, []Row{row(WorkloadMega, "w2", 3)}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := range b.Rows {
		names = append(names, b.Rows[i].Name())
	}
	if got := strings.Join(names, " "); got != "corpus mega/w2" {
		t.Fatalf("rows = %q, want the corpus row kept and the mega rows replaced", got)
	}
	if r := b.Row("mega/w2"); r == nil || r.TokensDelivered != 3 || r.Host.GoVersion == "" {
		t.Errorf("mega/w2 row = %+v", r)
	}

	var out strings.Builder
	b.Render(&out)
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Errorf("render has %d lines, want a header and one per row:\n%s", n, out.String())
	}
}

func TestFaultCounters(t *testing.T) {
	var c Counters
	c.AddFaults(3, 2)
	c.AddFaults(1, 0)
	s := c.Snapshot()
	if s.FaultsContained != 4 || s.ModulesDegraded != 2 {
		t.Errorf("fault counters = %d/%d, want 4/2", s.FaultsContained, s.ModulesDegraded)
	}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "faults contained:   4") {
		t.Errorf("Render lacks the fault line:\n%s", out.String())
	}
	c.Reset()
	if s := c.Snapshot(); s.FaultsContained != 0 || s.ModulesDegraded != 0 {
		t.Errorf("reset did not zero fault counters: %+v", s)
	}
	// A fault-free snapshot omits the line entirely.
	out.Reset()
	c.Snapshot().Render(&out)
	if strings.Contains(out.String(), "faults contained") {
		t.Errorf("fault-free Render still prints the fault line:\n%s", out.String())
	}
}
