package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/modules"
	"repro/internal/static"
)

const (
	// daemonSessions is how many of the largest corpus projects stay
	// resident. A fixed set keeps per-op work the same for every seed.
	daemonSessions = 4
	// daemonVariants is how many edit variants each session cycles through,
	// so project size never drifts and consecutive edits always differ.
	daemonVariants = 3
	// daemonOpsPerSecond sizes daemon-edit runs: requests per --seconds on
	// the reference 2-core host.
	daemonOpsPerSecond = 20
)

// summary is the content of an /analyze answer, the part that must equal
// an in-process DeltaSession of the same content.
type summary struct {
	HintCount    int          `json:"hint_count"`
	VisitedRatio float64      `json:"visited_ratio"`
	Baseline     graphSummary `json:"baseline"`
	Extended     graphSummary `json:"extended"`
}

type graphSummary struct {
	CallEdges          int     `json:"call_edges"`
	ReachableFunctions int     `json:"reachable_functions"`
	ResolvedPct        float64 `json:"resolved_pct"`
	MonomorphicPct     float64 `json:"monomorphic_pct"`
}

type analyzeResponse struct {
	Session string `json:"session"`
	Reused  bool   `json:"reused"`
	summary
	Faults     []string `json:"faults"`
	DurationMS float64  `json:"duration_ms"`
}

// daemonSession is one resident project: the file its edits rewrite, the
// content of every variant, and the answer each content must produce.
type daemonSession struct {
	project  *modules.Project
	path     string
	variants []string
	// want[v] is the answer for variant v; wantOrig for the original.
	want     []summary
	wantOrig summary
}

// daemonRequest is one request of the fixed sequence: an edit, or a no-op
// delta when noop is set.
type daemonRequest struct {
	session int
	noop    bool
}

// daemonPlan draws the seeded request sequence: blocks, each holding three
// edits and one no-op delta per session in a seeded order. Every seed thus
// sends each session the same mix.
func daemonPlan(seed int64, blocks int) []daemonRequest {
	rng := newRNG(seed, 3)
	var reqs []daemonRequest
	for b := 0; b < blocks; b++ {
		var block []daemonRequest
		for s := 0; s < daemonSessions; s++ {
			block = append(block, daemonRequest{session: s}, daemonRequest{session: s},
				daemonRequest{session: s}, daemonRequest{session: s, noop: true})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	return reqs
}

// largestProjects returns the k corpus projects with the most source.
func largestProjects(k int) []*modules.Project {
	bs := corpus.All()
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Project.CodeSize() > bs[j].Project.CodeSize() })
	out := make([]*modules.Project, k)
	for i := range out {
		out[i] = bs[i].Project
	}
	return out
}

// daemonSessionsFor builds the sessions of a seed: a seeded main-package
// file per project and its edit variants, each with the answer an
// in-process DeltaSession gives for it.
func daemonSessionsFor(seed int64) ([]*daemonSession, error) {
	rng := newRNG(seed, 4)
	var out []*daemonSession
	for _, p := range largestProjects(daemonSessions) {
		files := mainFiles(p)
		s := &daemonSession{project: p, path: files[rng.Intn(len(files))]}
		for v := 0; v < daemonVariants; v++ {
			s.variants = append(s.variants, p.Files[s.path]+
				fmt.Sprintf("\nfunction __benchVariant%d() { return %d; }\n", v, rng.Intn(1000000)))
		}
		ds := static.NewDeltaSession(cloneProject(p))
		var err error
		if s.wantOrig, err = inProcessAnswer(ds); err != nil {
			return nil, err
		}
		for v := range s.variants {
			ds.Update(map[string]string{s.path: s.variants[v]}, nil)
			a, err := inProcessAnswer(ds)
			if err != nil {
				return nil, err
			}
			s.want = append(s.want, a)
		}
		out = append(out, s)
	}
	return out, nil
}

// inProcessAnswer is the daemon's analysis of a session's current content.
func inProcessAnswer(ds *static.DeltaSession) (summary, error) {
	ar, err := approx.Run(ds.Project(), approx.Options{})
	if err != nil {
		return summary{}, err
	}
	base, ext, _, err := ds.Analyze(static.Options{Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()})
	if err != nil {
		return summary{}, err
	}
	return summary{HintCount: ar.Hints.Count(), VisitedRatio: ar.VisitedRatio(),
		Baseline: summarize(base), Extended: summarize(ext)}, nil
}

func summarize(r *static.Result) graphSummary {
	m := r.Metrics()
	return graphSummary{CallEdges: m.CallEdges, ReachableFunctions: m.ReachableFunctions,
		ResolvedPct: m.ResolvedPct, MonomorphicPct: m.MonomorphicPct}
}

// daemon is a running cmd/analyzed process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon starts the daemon on a free loopback port and waits until
// /healthz answers. It runs one analysis at a time, with the sequential
// solver and no pre-analysis deadline, so its answers are deterministic.
func startDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-approx-deadline", "0",
		"-max-concurrency", "1", "-solver-workers", "0")
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, client: &http.Client{Timeout: 60 * time.Second}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer /healthz within 30s: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// analyze posts one /analyze body and decodes the answer.
func (d *daemon) analyze(body []byte) (*analyzeResponse, error) {
	resp, err := d.client.Post(d.base+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/analyze: %s: %s", resp.Status, data)
	}
	var out analyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// openSessions sends every project in full and checks the first answers.
func (d *daemon) openSessions(sessions []*daemonSession) ([]string, error) {
	var ids []string
	for _, s := range sessions {
		p := s.project
		body, err := json.Marshal(map[string]any{"project": map[string]any{
			"name": p.Name, "files": p.Files, "main_entries": p.MainEntries,
			"test_entries": p.TestEntries, "main_prefix": p.MainPrefix,
		}})
		if err != nil {
			return nil, err
		}
		resp, err := d.analyze(body)
		if err != nil {
			return nil, err
		}
		if resp.summary != s.wantOrig {
			return nil, fmt.Errorf("%s: opening answer %+v, in process %+v", p.Name, resp.summary, s.wantOrig)
		}
		ids = append(ids, resp.Session)
	}
	return ids, nil
}

// replayState tracks which content each session holds, so every answer
// can be checked against the one computed in process.
type replayState struct {
	edits []int // edits sent per session; the next edit sends variant edits%daemonVariants
	cur   []summary
}

func newReplayState(sessions []*daemonSession) *replayState {
	st := &replayState{edits: make([]int, len(sessions))}
	for _, s := range sessions {
		st.cur = append(st.cur, s.wantOrig)
	}
	return st
}

// next returns the changed files of a request and the answer it must get,
// advancing the session's content.
func (rs *replayState) next(sessions []*daemonSession, r daemonRequest) (map[string]string, summary) {
	if r.noop {
		return nil, rs.cur[r.session]
	}
	s := sessions[r.session]
	v := rs.edits[r.session] % daemonVariants
	rs.edits[r.session]++
	rs.cur[r.session] = s.want[v]
	return map[string]string{s.path: s.variants[v]}, s.want[v]
}

func checkAnswer(r daemonRequest, reused bool, got, want summary, faults int) error {
	switch {
	case r.noop && !reused:
		return fmt.Errorf("no-op delta to session %d was re-analyzed", r.session)
	case !r.noop && reused:
		return fmt.Errorf("edit to session %d was answered from the memo", r.session)
	case faults > 0:
		return fmt.Errorf("session %d: %d faults", r.session, faults)
	case got != want:
		return fmt.Errorf("session %d: answer %+v, in process %+v", r.session, got, want)
	}
	return nil
}

func runDaemonEdit(cfg config) (*runStats, error) {
	if cfg.daemonBin == "" {
		return nil, fmt.Errorf("daemon-edit needs --daemon (the built cmd/analyzed binary)")
	}
	// Before set-up: the answers every request must get.
	sessions, err := daemonSessionsFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	perBlock := 4 * daemonSessions
	plan := daemonPlan(cfg.seed, (daemonOpsPerSecond*cfg.seconds+perBlock-1)/perBlock)

	// Set-up: start the daemon, wait for /healthz, open the sessions.
	st := &runStats{}
	var d *daemon
	var ids []string
	for r := 0; r < setupReps[cfg.workload]; r++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(cfg.daemonBin); err != nil {
			return nil, err
		}
		if ids, err = d.openSessions(sessions); err != nil {
			d.stop()
			return nil, err
		}
		st.setupS = append(st.setupS, time.Since(start).Seconds())
	}
	defer d.stop()

	// One client, one request in flight.
	rs := newReplayState(sessions)
	var serverMS, httpMS float64
	hints, edges := 0, 0
	for _, r := range plan {
		changed, want := rs.next(sessions, r)
		body, err := json.Marshal(map[string]any{"session": ids[r.session],
			"delta": map[string]any{"changed": changed}})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := d.analyze(body)
		lat := msSince(start)
		st.opMS = append(st.opMS, lat)
		if err == nil {
			serverMS += resp.DurationMS
			httpMS += lat - resp.DurationMS
			hints += resp.HintCount
			edges += resp.Extended.CallEdges
			err = checkAnswer(r, resp.Reused, resp.summary, want, len(resp.Faults))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon-edit:", err)
			st.failed++
		}
	}
	st.attempted = len(plan)
	st.counters = map[string]int64{"hints": int64(hints), "call_edges": int64(edges)}
	if st.peakRSSMB, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return st, nil
	}

	// Traced run: the HTTP loop above gives the server/transport split; an
	// in-process replay of the same sequence through the calls the daemon
	// makes gives the layers, once untraced and once traced.
	n := float64(len(plan))
	st.layers = map[string]float64{
		"analyzed.server_ms": serverMS / n,
		"analyzed.http_ms":   httpMS / n,
	}
	replay, err := newReplay(sessions)
	if err != nil {
		return nil, err
	}
	untraced := replay.run(nil, plan)
	st.layers["experiments.live_heap_mb"] = liveHeapMB()
	e1 := readEffort()
	traced := replay.run(newTracer(), plan)
	teff := readEffort().sub(e1)
	st.attempted += 2 * len(plan)
	st.failed += untraced.failed + traced.failed
	teff.layers(st.layers)
	st.layers["approx.hints"] = float64(traced.hints)
	if traced.approxRuns > 0 {
		st.layers["approx.visited_ratio"] = traced.visited / float64(traced.approxRuns)
	}
	st.layers["static.solve_ms"] = traced.solveMS / n
	st.layers["delta.reused_ratio"] = float64(traced.reused) / n
	st.layers["parse.kb_per_ms"] = traced.parseBytes / 1024 / traced.parseMS
	finishTrace(cfg, st, traced.tr, untraced.opMS, traced.opMS)
	return st, nil
}

// replay drives in-process DeltaSessions exactly as the daemon does.
type replay struct {
	sessions []*daemonSession
	ds       []*static.DeltaSession
	fp       []string
	ar       []*approx.Result
	state    *replayState
}

// newReplay opens one in-process session per project and analyzes it
// once, as opening a daemon session does.
func newReplay(sessions []*daemonSession) (*replay, error) {
	r := &replay{sessions: sessions, state: newReplayState(sessions)}
	for _, s := range sessions {
		ds := static.NewDeltaSession(cloneProject(s.project))
		ar, err := approx.Run(ds.Project(), approx.Options{})
		if err != nil {
			return nil, err
		}
		if _, _, _, err := ds.Analyze(static.Options{Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()}); err != nil {
			return nil, err
		}
		r.ds = append(r.ds, ds)
		r.fp = append(r.fp, cache.ProjectFingerprint(ds.Project()))
		r.ar = append(r.ar, ar)
	}
	return r, nil
}

type replayRun struct {
	tr                  *tracer
	opMS                []float64
	failed              int
	hints, approxRuns   int
	visited, solveMS    float64
	reused              int
	parseBytes, parseMS float64
}

// run sends the request sequence through the sessions: Update, the content
// fingerprint, approx.Run when the fingerprint changed, DeltaSession.Analyze
// and the graph metrics, as the daemon's analyze handler does.
func (r *replay) run(tr *tracer, plan []daemonRequest) *replayRun {
	out := &replayRun{tr: tr}
	for i, req := range plan {
		changed, want := r.state.next(r.sessions, req)
		ds := r.ds[req.session]
		var got summary
		var reused bool
		var faults int
		var err error
		var ph0 phaseMS
		if tr != nil {
			ph0 = readPhases()
		}
		start := time.Now()
		tr.opSpan(i, func() {
			tr.do("delta.update", func() { ds.Update(changed, nil) })
			var fp string
			tr.do("cache.fingerprint", func() { fp = cache.ProjectFingerprint(ds.Project()) })
			if fp != r.fp[req.session] {
				var ar *approx.Result
				tr.do("approx", func() { ar, err = approx.Run(ds.Project(), approx.Options{}) })
				if err != nil {
					return
				}
				r.ar[req.session], r.fp[req.session] = ar, fp
				out.hints += ar.Hints.Count()
				out.visited += ar.VisitedRatio()
				out.approxRuns++
			}
			ar := r.ar[req.session]
			var base, ext *static.Result
			tr.do("static", func() {
				base, ext, reused, err = ds.Analyze(static.Options{Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules()})
			})
			if err != nil {
				return
			}
			tr.do("callgraph", func() {
				got = summary{HintCount: ar.Hints.Count(), VisitedRatio: ar.VisitedRatio(),
					Baseline: summarize(base), Extended: summarize(ext)}
			})
			faults = len(ar.Faults) + len(ext.Faults)
			if !reused {
				out.solveMS += float64((base.SolveWall + ext.SolveWall).Nanoseconds()) / 1e6
			}
		})
		out.opMS = append(out.opMS, msSince(start))
		if tr != nil {
			out.parseMS += readPhases()[0] - ph0[0]
			for _, src := range changed {
				out.parseBytes += float64(len(src))
			}
		}
		if reused {
			out.reused++
		}
		if err == nil {
			err = checkAnswer(req, reused, got, want, faults)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon-edit replay:", err)
			out.failed++
		}
	}
	return out
}
