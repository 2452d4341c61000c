package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// buildDaemon builds cmd/analyzed for the daemon-edit runs.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "analyzed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/analyzed").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/analyzed: %v\n%s", err, out)
	}
	return bin
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func shortRun(t *testing.T, daemon, workload string, trace int) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1",
		"--trace", string(rune('0' + trace)), "--root", t.TempDir(), "--daemon", daemon}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(last) != 4 {
		t.Errorf("%s: result has keys %v, want correct, attempted, failed, metrics", workload, last)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShortRunsPrintEveryMetric runs each workload briefly in both modes
// and checks the result line: correct, and every named metric with its
// unit.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	daemon := buildDaemon(t)
	for _, w := range []string{"corpus-cold", "corpus-cache", "mega-solve", "daemon-edit"} {
		for trace, want := range [][]struct{ name, unit string }{endToEnd, perLayer} {
			res := shortRun(t, daemon, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			if trace == 0 {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameCounters runs mega-solve and corpus-cold twice with one
// seed: the exact counters must repeat.
func TestSameSeedSameCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, w := range []string{"mega-solve", "corpus-cold"} {
		cfg := config{workload: w, seed: 3, seconds: 1, out: t.TempDir()}
		a, err := workloads[w](cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workloads[w](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: counters differ between runs of one seed:\n%v\n%v", w, a.counters, b.counters)
		}
		if a.counters["tokens_delivered"] == 0 {
			t.Errorf("%s: no solver work counted: %v", w, a.counters)
		}
	}
}

// TestSeedDrivesOrder checks that the seed alone decides the op sequence:
// the same seed gives the same project order, edits and request sequence,
// and another seed changes them.
func TestSeedDrivesOrder(t *testing.T) {
	bs := corpus.All()
	if !reflect.DeepEqual(permutation(1, corpus.Size), permutation(1, corpus.Size)) {
		t.Error("corpus-cold order differs for one seed")
	}
	if reflect.DeepEqual(permutation(1, corpus.Size), permutation(2, corpus.Size)) {
		t.Error("corpus-cold order is the same for two seeds")
	}
	if !reflect.DeepEqual(cacheEdits(1, 2, "u", bs), cacheEdits(1, 2, "u", bs)) {
		t.Error("corpus-cache edits differ for one seed")
	}
	if reflect.DeepEqual(cacheEdits(1, 2, "u", bs), cacheEdits(2, 2, "u", bs)) {
		t.Error("corpus-cache edits are the same for two seeds")
	}
	if !reflect.DeepEqual(daemonPlan(1, 4), daemonPlan(1, 4)) {
		t.Error("daemon-edit requests differ for one seed")
	}
	if reflect.DeepEqual(daemonPlan(1, 4), daemonPlan(2, 4)) {
		t.Error("daemon-edit requests are the same for two seeds")
	}
}

// TestDaemonPlanMix checks the request mix: every session gets the same
// number of requests, three edits to each no-op delta.
func TestDaemonPlanMix(t *testing.T) {
	edits := make([]int, daemonSessions)
	noops := make([]int, daemonSessions)
	for _, r := range daemonPlan(5, 3) {
		if r.noop {
			noops[r.session]++
		} else {
			edits[r.session]++
		}
	}
	for s := range edits {
		if edits[s] != 3*noops[s] || noops[s] != 3 {
			t.Errorf("session %d: %d edits, %d no-ops", s, edits[s], noops[s])
		}
	}
}

// TestCacheEditsAreNew checks that every corpus-cache edit is content the
// store has never seen and that each round edits every project once.
func TestCacheEditsAreNew(t *testing.T) {
	bs := corpus.All()
	n := len(bs)
	edits := cacheEdits(9, 3, "u", bs)
	if len(edits) != 3*n {
		t.Fatalf("%d edits, want %d", len(edits), 3*n)
	}
	seen := map[string]bool{}
	for r := 0; r < 3; r++ {
		slots := map[int]bool{}
		for i, e := range edits[r*n : (r+1)*n] {
			if seen[e.src] {
				t.Errorf("round %d edit %d repeats earlier content", r, i)
			}
			seen[e.src] = true
			slots[e.slot] = true
		}
		if len(slots) != n {
			t.Errorf("round %d edits %d of %d projects", r, len(slots), n)
		}
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile([]float64{1, 2, 3, 4, 5}, 0.9); q != 4.6 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
}

func TestLayerTimesChargeSelfTime(t *testing.T) {
	tr := newTracer()
	tr.opSpan(0, func() {
		tr.do("approx", func() {})
		tr.do("static", func() {})
	})
	layers, opMS := tr.layerTimes()
	var sum float64
	for _, ms := range layers {
		sum += ms
	}
	if d := sum - opMS; d > 1e-6 || d < -1e-6 {
		t.Errorf("layer self times sum to %v ms, op took %v ms", sum, opMS)
	}
}
