// Command perfbench measures the approx → static → dyncg pipeline and the
// cmd/analyzed daemon from outside, through their public functions and the
// daemon's HTTP API. Every workload is a closed loop with one op in flight
// and a fixed op count; see README.md for the workloads, the metrics and
// the noise findings behind these choices.
//
//	perfbench --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result. With --trace 0 it
// holds the end-to-end metrics of an untraced run; with --trace 1 the
// per-layer metrics of a traced run, which also repeats the op sequence
// untraced to report the tracing overhead.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// out is the build and scratch directory inside the checkout.
	out string
	// daemonBin is the built cmd/analyzed binary.
	daemonBin string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStats is what a workload run hands back for reporting.
type runStats struct {
	setupS    []float64 // one entry per set-up repetition
	opMS      []float64 // per-op latency of the untraced loop
	attempted int
	failed    int
	// checkErr is a run-level correctness failure (a whole-run check, not
	// one op's).
	checkErr  error
	peakRSSMB float64
	// counters are the exact effort counters of the measured loop; a rerun
	// with the same seed must reproduce them.
	counters map[string]int64
	// layers are the per-layer metrics (traced runs only).
	layers map[string]float64
}

type workloadFunc func(cfg config) (*runStats, error)

var workloads = map[string]workloadFunc{
	"corpus-cold":  runCorpusCold,
	"corpus-cache": runCorpusCache,
	"mega-solve":   runMegaSolve,
	"daemon-edit":  runDaemonEdit,
}

// endToEnd lists the untraced metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced metrics with their units. Every traced run
// prints all of them; a layer that does not run on a workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"},
	{"parse.files", "count"},
	{"parse.kb_per_ms", "KB/ms"},
	{"approx.ms", "ms"},
	{"approx.hints", "count"},
	{"approx.visited_ratio", "ratio"},
	{"static.ms", "ms"},
	{"static.solve_ms", "ms"},
	{"static.solve_iterations", "count"},
	{"static.tokens_delivered", "count"},
	{"static.cycles_collapsed", "count"},
	{"static.redundant_ratio", "ratio"},
	{"static.scan_ms", "ms"},
	{"static.apply_ms", "ms"},
	{"static.tail_ms", "ms"},
	{"static.sweep_overlap_ms", "ms"},
	{"static.epochs", "count"},
	{"static.async_sweeps", "count"},
	{"dyncg.ms", "ms"},
	{"dyncg.edges", "count"},
	{"callgraph.ms", "ms"},
	{"cache.ms", "ms"},
	{"cache.fingerprint_ms", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.bytes_written", "bytes"},
	{"cache.hit_ratio", "ratio"},
	{"delta.update_ms", "ms"},
	{"delta.reused_ratio", "ratio"},
	{"analyzed.server_ms", "ms"},
	{"analyzed.http_ms", "ms"},
	{"experiments.driver_ms", "ms"},
	{"experiments.live_heap_mb", "MB"},
	{"host.ref_ms", "ms"},
	{"error_rate", "ratio"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_share", "ratio"},
	{"counters.repeat_mismatch", "count"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: corpus-cold, corpus-cache, mega-solve or daemon-edit")
	seed := fs.Int64("seed", 1, "seed for op order, project selection and edit content")
	seconds := fs.Int("seconds", 10, "nominal run length; sets each workload's fixed op count")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root (holds the build directory)")
	daemon := fs.String("daemon", "", "path of the built cmd/analyzed binary (daemon-edit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: filepath.Join(absRoot, ".bench_build"), daemonBin: *daemon,
	}

	host := hostBlock()
	refBefore := refMS()
	st, err := wf(cfg)
	if err != nil {
		return err
	}
	refAfter := refMS()
	host["ref_ms_before"] = refBefore
	host["ref_ms_after"] = refAfter
	mismatch, err := checkRepeat(cfg, st.counters)
	if err != nil {
		return err
	}
	hj, err := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed,
		"ops": st.attempted, "counters": st.counters, "counters_repeat_mismatch": mismatch})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(hj))

	metrics := map[string]metric{}
	if cfg.trace {
		st.layers["host.ref_ms"] = (refBefore + refAfter) / 2
		st.layers["error_rate"] = float64(st.failed) / float64(st.attempted)
		st.layers["counters.repeat_mismatch"] = float64(mismatch)
		for _, m := range perLayer {
			v := st.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[m.name] = metric{v, m.unit}
		}
	} else {
		var sum float64
		for _, d := range st.opMS {
			sum += d
		}
		vals := map[string]float64{
			"setup_s":     median(st.setupS),
			"ops_per_s":   float64(len(st.opMS)) / (sum / 1000),
			"op_p50_ms":   quantile(st.opMS, 0.5),
			"op_p90_ms":   quantile(st.opMS, 0.9),
			"peak_rss_mb": st.peakRSSMB,
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	printTable(stdout, cfg, st, metrics)

	correct := st.failed == 0 && st.checkErr == nil
	if st.checkErr != nil {
		fmt.Fprintln(stdout, "check failed:", st.checkErr)
	}
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": st.attempted, "failed": st.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(res))
	return nil
}

// printTable prints every metric by name with its unit, for people.
func printTable(w io.Writer, cfg config, st *runStats, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d %s: %d ops, %d failed\n", cfg.workload, cfg.seed, mode, st.attempted, st.failed)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-26s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if !cfg.trace {
		// error_rate is an end-to-end metric for people; the result line
		// carries it as failed/attempted (it reads 0 on a healthy run).
		fmt.Fprintf(w, "#   %-26s %14.4f %s\n", "error_rate", float64(st.failed)/float64(st.attempted), "ratio")
	}
}

// hostBlock records what a wall-clock comparison between two runs needs to
// know about the host.
func hostBlock() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// refMS times a fixed piece of work that shares no code with the system
// under test — sorting, hashing and map churn over a few megabytes, the
// same mix of branchy CPU and memory traffic the analyses do — so a slower
// host shows up as drift in this number, not as a regression of the code.
// The buffers are allocated before the clock starts and the timed work
// allocates nothing, so the garbage collector, whose cost grows with the
// workload's live heap, stays out of it. It returns the median of five
// repetitions, after one that warms the caches, in milliseconds.
func refMS() float64 {
	const n = 1 << 18
	keys := make([]uint64, n)
	buf := make([]byte, 8*n)
	m := make(map[uint64]int, n)
	var reps []float64
	for r := 0; r < 6; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x % 1_000_003
		}
		slices.Sort(keys)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(buf[8*i:], k)
			m[k] = i
		}
		sum := sha256.Sum256(buf)
		sink = len(m) + int(sum[0])
		clear(m)
		if r > 0 { // the first repetition warms the caches
			reps = append(reps, msSince(start))
		}
	}
	return median(reps)
}

var sink int

// checkRepeat compares this run's exact counters with an earlier run of the
// same binary, workload, seed, length and mode in this checkout, and saves
// them for later runs. It returns 1 (and flags the run on stderr) when they
// differ.
func checkRepeat(cfg config, counters map[string]int64) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(data)
	key := fmt.Sprintf("%s-seed%d-s%d-t%t-%s.json", cfg.workload, cfg.seed, cfg.seconds, cfg.trace,
		hex.EncodeToString(sum[:8]))
	path := filepath.Join(cfg.out, "counters", key)
	cur, err := json.Marshal(counters)
	if err != nil {
		return 0, err
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != string(cur) {
			fmt.Fprintf(os.Stderr, "perfbench: FLAG counters differ from an earlier run of the same seed:\n  was %s\n  now %s\n", prev, cur)
			return 1, nil
		}
		return 0, nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return 0, err
		}
		return 0, os.WriteFile(path, cur, 0o644)
	default:
		return 0, err
	}
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
