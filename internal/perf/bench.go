package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
)

// Workloads of the bench snapshot. Rows are kept in this (alphabetical)
// order.
const (
	// WorkloadCorpus is one whole-corpus evaluation (evaluate -all); its
	// one row has no arm.
	WorkloadCorpus = "corpus"
	// WorkloadDelta is the persistent-cache benchmark
	// (experiments.RunDeltaBench), arms cold, warm, edit-warm and
	// edit-scratch.
	WorkloadDelta = "delta"
	// WorkloadMega is the mega-tier solver-scaling benchmark
	// (experiments.RunMegaBench), one arm per solver worker count: w1, w2,
	// w4.
	WorkloadMega = "mega"
)

// Host is the machine a row was measured on. Wall times compare only
// between rows of one host, and wall-clock overlap needs GOMAXPROCS >= 4.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// ThisHost describes the running process's host.
func ThisHost() Host {
	return Host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// Row is one measured arm of one workload: the counter snapshot of that
// arm, labelled with the workload, the arm, the solver's worker count and
// the host. Each workload fills the counters it has. The host rides on
// every row so that rows merged from different runs stay labelled.
type Row struct {
	Workload      string `json:"workload"`
	Arm           string `json:"arm,omitempty"`
	SolverWorkers int    `json:"solver_workers"`
	Host          Host   `json:"host"`
	Snapshot
}

// Name identifies the row within a Bench: "workload/arm", or the workload
// alone for a row without an arm.
func (r *Row) Name() string {
	if r.Arm == "" {
		return r.Workload
	}
	return r.Workload + "/" + r.Arm
}

// Bench is the bench snapshot (BENCH.json): the rows of every workload.
// It stores measurements only; speedups and shares are derived by the
// reader (cmd/benchcheck).
type Bench struct {
	Rows []Row `json:"rows"`
}

// Row returns the row with the given Name, or nil.
func (b *Bench) Row(name string) *Row {
	for i := range b.Rows {
		if b.Rows[i].Name() == name {
			return &b.Rows[i]
		}
	}
	return nil
}

// ReadBench reads a bench snapshot file.
func ReadBench(path string) (Bench, error) {
	var b Bench
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// MergeFile writes rows into the bench snapshot at path. The rows replace
// every row of their workloads; rows of other workloads already in the
// file are kept. A missing file starts empty.
func MergeFile(path string, rows []Row) error {
	b, err := ReadBench(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	replaced := map[string]bool{}
	for _, r := range rows {
		replaced[r.Workload] = true
	}
	kept := b.Rows[:0]
	for _, r := range b.Rows {
		if !replaced[r.Workload] {
			kept = append(kept, r)
		}
	}
	b.Rows = append(kept, rows...)
	sort.SliceStable(b.Rows, func(i, j int) bool { return b.Rows[i].Workload < b.Rows[j].Workload })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON writes the snapshot as indented JSON.
func (b Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Render writes one line per row.
func (b Bench) Render(w io.Writer) {
	fmt.Fprintf(w, "%-18s %5s %3s %10s %7s %6s %6s %10s %10s %7s %6s %9s %9s %9s %9s\n",
		"row", "procs", "sw", "wall ms", "parses", "hits", "misses", "iterations", "tokens",
		"cycles", "epochs", "scan ms", "apply ms", "tail ms", "sweep ms")
	for i := range b.Rows {
		r := &b.Rows[i]
		fmt.Fprintf(w, "%-18s %5d %3d %10.1f %7d %6d %6d %10d %10d %7d %6d %9.1f %9.1f %9.1f %9.1f\n",
			r.Name(), r.Host.GOMAXPROCS, r.SolverWorkers, r.WallMS, r.Parses, r.CacheHits, r.CacheMisses,
			r.SolveIterations, r.TokensDelivered, r.CyclesCollapsed, r.SolverEpochs,
			r.SolverScanMS, r.SolverApplyMS, r.SolverTailMS, r.SolverSweepMS)
	}
}
