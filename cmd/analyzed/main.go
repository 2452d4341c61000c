// Command analyzed is the analysis-as-a-service daemon: a long-lived HTTP
// server that accepts JavaScript projects (or file deltas against a
// resident session) and returns call-graph metrics from the approximate-
// interpretation pipeline.
//
//	POST   /analyze {"project": {...}}                  full analysis, opens a session
//	POST   /analyze {"session": "s-1", "delta": {...}}  file-delta re-analysis
//	GET    /provenance?session=s-1                      root-cause attribution of missed edges
//	DELETE /session?id=s-1                              close a session
//	GET    /healthz                                     liveness
//	GET    /stats                                       session count
//
// A full-project request opens (or replaces) a session holding a
// static.DeltaSession: the project stays resident with its parse cache,
// so a delta request re-parses only the files it changed, reuses the
// memoized hint set when the content fingerprint is unchanged, and skips
// the solve entirely for no-op deltas.
//
// Residency is bounded: at most -max-sessions sessions stay resident
// (opening one more evicts the least recently used), and a client can
// close a session eagerly with DELETE /session?id=. An /analyze body over
// 64 MiB is refused with 413.
//
// Isolation: each request runs under a panic guard (a panicking analysis
// returns 500 and the daemon lives on), the pre-analysis runs with the
// fault containment of internal/approx (per-item panic recovery plus the
// -approx-deadline budget), and contained faults degrade hints per module
// and are reported in the response — one bad module never takes down a
// request, and one bad request never takes down the service.
//
// Concurrency: requests against one session serialize on the session lock;
// requests against different sessions run their analyses in parallel, and
// -max-concurrency bounds how many analyses (full, delta, or provenance)
// may run at once across all sessions — excess requests queue on the
// global semaphore instead of oversubscribing the host. An analysis may
// keep two cores busy: an edit re-runs the pre-analysis on its own
// goroutine while the baseline constraints are generated and solved
// (static.DeltaSession.AnalyzeFrom). -max-concurrency still counts
// analyses, not cores. -solver-workers sets the epoch engine's worker
// count for every solve; reports are byte-identical at every worker
// count. A request cannot change it: the count sizes per-analysis buffers,
// so it is the operator's choice, not the client's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/dyncg"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/hints"
	"repro/internal/modules"
	"repro/internal/static"
)

// projectPayload is the wire form of a full project.
type projectPayload struct {
	Name        string            `json:"name"`
	Files       map[string]string `json:"files"`
	MainEntries []string          `json:"main_entries"`
	TestEntries []string          `json:"test_entries,omitempty"`
	MainPrefix  string            `json:"main_prefix,omitempty"`
}

// deltaPayload is the wire form of a file delta against a session.
type deltaPayload struct {
	Changed map[string]string `json:"changed,omitempty"`
	Removed []string          `json:"removed,omitempty"`
}

// analyzeRequest is the POST /analyze body: exactly one of Project (full
// analysis, opens/replaces the session) or Delta (requires Session).
// Unknown fields are ignored.
type analyzeRequest struct {
	Session string          `json:"session,omitempty"`
	Project *projectPayload `json:"project,omitempty"`
	Delta   *deltaPayload   `json:"delta,omitempty"`
}

// graphSummary is the per-graph slice of an analysis response.
type graphSummary struct {
	CallEdges          int     `json:"call_edges"`
	ReachableFunctions int     `json:"reachable_functions"`
	ResolvedPct        float64 `json:"resolved_pct"`
	MonomorphicPct     float64 `json:"monomorphic_pct"`
}

// analyzeResponse is the POST /analyze response.
type analyzeResponse struct {
	Session string `json:"session"`
	// Reused is true when no analysis input changed since the session's
	// last solve (a no-op delta): the response is the memoized fixpoint
	// and no solver work was done.
	Reused bool `json:"reused"`

	HintCount    int     `json:"hint_count"`
	VisitedRatio float64 `json:"visited_ratio"`

	Baseline graphSummary `json:"baseline"`
	Extended graphSummary `json:"extended"`

	Faults          []string `json:"faults,omitempty"`
	DegradedModules []string `json:"degraded_modules,omitempty"`

	DurationMS float64 `json:"duration_ms"`
}

// provenanceCause is one attributed missed edge of a provenance response.
type provenanceCause struct {
	Site     string   `json:"site"`
	Target   string   `json:"target"`
	Bucket   string   `json:"bucket"`
	Cause    string   `json:"cause"`
	Detail   string   `json:"detail"`
	Frontier []string `json:"frontier,omitempty"`
	Neighbor string   `json:"neighbor,omitempty"`
	Chain    []string `json:"chain,omitempty"`
}

// provenanceResponse is the GET /provenance response: every dynamic call
// edge the session's extended graph misses, attributed to a root cause via
// the provenance journal, plus the ranked fix list. Faults lists the
// contained failures of the concrete run, the pre-analysis and the
// extended solve, in that order: a concrete run cut short (a deadline
// fault) is an incomplete ground truth, so its missed edges are a lower
// bound.
type provenanceResponse struct {
	Session      string            `json:"session"`
	MissedEdges  int               `json:"missed_edges"`
	Unattributed int               `json:"unattributed"`
	Causes       []provenanceCause `json:"causes,omitempty"`
	Fixes        []string          `json:"fixes,omitempty"`
	Faults       []string          `json:"faults,omitempty"`
	// Journal sizes of the provenance-enabled solve that produced the
	// attribution (constraint-edge records / token-insertion records).
	JournalEdges   int     `json:"journal_edges"`
	JournalInserts int     `json:"journal_inserts"`
	DurationMS     float64 `json:"duration_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes caps an /analyze request body. A declared length over
// the cap is refused before any byte is read; a chunked body is cut off
// at the cap. The largest corpus project encodes to well under a
// megabyte, so the cap only stops runaway or hostile clients.
const maxRequestBytes = 64 << 20

// session is one resident project plus the memoized pre-analysis of its
// current content fingerprint. Requests against one session serialize:
// sess.mu guards every read and write of the resident project — delta
// application included — so an edit can never land mid-analysis.
type session struct {
	mu sync.Mutex
	ds *static.DeltaSession

	// lastUsed orders sessions for LRU eviction. Guarded by server.mu
	// (not sess.mu): it is only touched while the session map is locked.
	lastUsed time.Time

	// Pre-analysis memo: valid while the project content fingerprint
	// equals approxFP. Hints depend on the whole file set (one shared
	// interpreter), so any edit invalidates them as a unit.
	approxFP string
	hints    *approx.Result
}

// runApprox is approx.Run, a variable so tests can make the pre-analysis
// panic.
var runApprox = approx.Run

// preAnalysis returns the pre-analysis of the session's current project,
// memoized per content fingerprint: hints are a function of the whole
// file set, so they are reused exactly when nothing changed and recomputed
// as a unit otherwise. A superseded memo is released before the new run.
// Callers hold sess.mu.
func (sess *session) preAnalysis(deadline time.Duration) (*approx.Result, error) {
	project := sess.ds.Project()
	fp := cache.ProjectFingerprint(project)
	if sess.hints == nil || fp != sess.approxFP {
		sess.hints, sess.approxFP = nil, ""
		ar, err := runApprox(project, approx.Options{Deadline: deadline})
		if err != nil {
			return nil, fmt.Errorf("approx: %w", err)
		}
		sess.hints, sess.approxFP = ar, fp
	}
	return sess.hints, nil
}

// hintSource is the session's pre-analysis memo as the hint source of an
// analysis. The analysis joins it before returning, and sess.hints is then
// nil exactly when the pre-analysis failed. Callers hold sess.mu.
func (sess *session) hintSource(deadline time.Duration) static.HintSource {
	return func() (*hints.Hints, map[string]bool, error) {
		ar, err := sess.preAnalysis(deadline)
		if err != nil {
			return nil, nil, err
		}
		return ar.Hints, ar.FaultedModules(), nil
	}
}

type server struct {
	mu       sync.Mutex
	sessions map[string]*session
	nextID   int

	approxDeadline time.Duration
	maxSessions    int
	solverWorkers  int

	// sem bounds how many analyses run at once across all sessions.
	// Acquired before the session lock, so a queued request waits here,
	// not inside a session, and independent sessions proceed in parallel
	// up to the bound.
	sem chan struct{}
}

func newServer(approxDeadline time.Duration, maxSessions, solverWorkers, maxConcurrency int) *server {
	if maxSessions < 1 {
		maxSessions = 1
	}
	if maxConcurrency < 1 {
		maxConcurrency = runtime.NumCPU()
	}
	return &server{
		sessions:       map[string]*session{},
		approxDeadline: approxDeadline,
		maxSessions:    maxSessions,
		solverWorkers:  solverWorkers,
		sem:            make(chan struct{}, maxConcurrency),
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/provenance", s.handleProvenance)
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": n})
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	if r.ContentLength > maxRequestBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{fmt.Sprintf("request body of %d bytes exceeds the %d-byte cap", r.ContentLength, maxRequestBytes)})
		return
	}
	var req analyzeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{"bad request body: " + err.Error()})
		return
	}

	var (
		id   string
		sess *session
	)
	switch {
	case req.Project != nil:
		if len(req.Project.Files) == 0 || len(req.Project.MainEntries) == 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"project needs files and main_entries"})
			return
		}
		project := &modules.Project{
			Name:        req.Project.Name,
			Files:       req.Project.Files,
			MainEntries: req.Project.MainEntries,
			TestEntries: req.Project.TestEntries,
			MainPrefix:  req.Project.MainPrefix,
		}
		sess = &session{ds: static.NewDeltaSession(project)}
		s.mu.Lock()
		id = req.Session
		if id == "" {
			s.nextID++
			id = fmt.Sprintf("s-%d", s.nextID)
		}
		if _, exists := s.sessions[id]; !exists {
			s.evictLRULocked()
		}
		sess.lastUsed = time.Now()
		s.sessions[id] = sess
		s.mu.Unlock()
	case req.Delta != nil:
		if req.Session == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{"delta requires a session"})
			return
		}
		s.mu.Lock()
		sess = s.sessions[req.Session]
		if sess != nil {
			sess.lastUsed = time.Now()
		}
		s.mu.Unlock()
		if sess == nil {
			writeJSON(w, http.StatusNotFound, errorResponse{"unknown session " + req.Session})
			return
		}
		id = req.Session
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{"request needs a project or a delta"})
		return
	}

	resp, err := s.analyze(sess, req.Delta)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	resp.Session = id
	writeJSON(w, http.StatusOK, resp)
}

// evictLRULocked removes least-recently-used sessions until there is room
// to add one more, so the resident set (each pinning a full project, its
// parse cache, and two memoized Results) cannot grow without bound.
// Callers hold s.mu. An evicted session with a request in flight finishes
// that request on the orphaned value and is freed afterwards.
func (s *server) evictLRULocked() {
	for len(s.sessions) >= s.maxSessions {
		var oldest string
		var oldestT time.Time
		for id, sess := range s.sessions {
			if oldest == "" || sess.lastUsed.Before(oldestT) {
				oldest, oldestT = id, sess.lastUsed
			}
		}
		delete(s.sessions, oldest)
	}
}

// handleSession closes a resident session: DELETE /session?id=s-1. Closing
// releases the resident project immediately instead of waiting for LRU
// eviction; a delta against a closed session is 404.
func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"DELETE only"})
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"missing id parameter"})
		return
	}
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown session " + id})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// handleProvenance answers "why is this edge missing?" for a resident
// session: GET /provenance?session=s-1. It executes the project concretely
// for ground truth (each entry module under the -approx-deadline budget),
// re-solves with the provenance journal enabled, and attributes every
// dynamic call edge the extended static graph lacks.
func (s *server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	id := r.URL.Query().Get("session")
	if id == "" {
		id = r.URL.Query().Get("id")
	}
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"missing session parameter"})
		return
	}
	s.mu.Lock()
	sess := s.sessions[id]
	if sess != nil {
		sess.lastUsed = time.Now()
	}
	s.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown session " + id})
		return
	}
	resp, err := s.provenance(sess)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	resp.Session = id
	writeJSON(w, http.StatusOK, resp)
}

// provenance runs the attribution pipeline on the session's resident
// project, under the same per-session lock and panic guard as analyze.
// The provenance-enabled solve is a fresh AnalyzeBoth run with EvalHints
// and Provenance, not the resident delta session: a journal describes
// exactly the run that produced it, so it cannot be patched across deltas
// the way fixpoints can. The concrete run shares the pre-analysis
// deadline, so a project that never terminates cannot hold a
// -max-concurrency slot forever: its entry becomes a deadline fault.
func (s *server) provenance(sess *session) (resp *provenanceResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("attribution panicked (contained): %v", r)
		}
	}()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	sess.mu.Lock()
	defer sess.mu.Unlock()

	start := time.Now()
	project := sess.ds.Project()

	dr, err := dyncg.Build(project, dyncg.Options{Deadline: s.approxDeadline})
	if err != nil {
		return nil, fmt.Errorf("dyncg: %w", err)
	}
	_, ext, err := static.AnalyzeBothFrom(project, static.Options{
		Mode: static.WithHints, EvalHints: true, Provenance: true,
		SolverWorkers: s.solverWorkers,
	}, sess.hintSource(s.approxDeadline))
	ar := sess.hints
	switch {
	case ar == nil:
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("static: %w", err)
	}

	causes := fuzz.AttributeMissedEdges(project, dr.Graph, ar, ext)
	resp = &provenanceResponse{MissedEdges: len(causes)}
	for _, rc := range causes {
		if rc.Cause == fuzz.CauseUnattributed {
			resp.Unattributed++
		}
		pc := provenanceCause{
			Site:     rc.Edge.Site.String(),
			Target:   rc.Edge.TargetDesc(),
			Bucket:   rc.Bucket,
			Cause:    string(rc.Cause),
			Detail:   rc.Detail,
			Neighbor: rc.Neighbor,
			Chain:    rc.Chain,
		}
		for _, f := range rc.Frontier {
			pc.Frontier = append(pc.Frontier, f.String())
		}
		resp.Causes = append(resp.Causes, pc)
	}
	for _, f := range fuzz.RankFixes(causes) {
		resp.Fixes = append(resp.Fixes, f.String())
	}
	for _, fs := range [][]fault.Record{dr.Faults, ar.Faults, ext.Faults} {
		for _, f := range fs {
			resp.Faults = append(resp.Faults, f.String())
		}
	}
	if ext.Provenance != nil {
		resp.JournalEdges, resp.JournalInserts = ext.Provenance.Records()
	}
	resp.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// analyze applies the delta (if any) and runs (or reuses) the session's
// pipeline, all under sess.mu — the delta is applied inside the lock so
// every read and write of the resident project is serialized per session
// and an edit can never land while another request is mid-analysis. The
// global semaphore is taken first, bounding concurrent analyses across
// sessions while independent sessions still run in parallel. The panic
// guard converts a panicking analysis into an error response, keeping the
// daemon and the session map alive.
func (s *server) analyze(sess *session, delta *deltaPayload) (resp *analyzeResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("analysis panicked (contained): %v", r)
		}
	}()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	sess.mu.Lock()
	defer sess.mu.Unlock()

	start := time.Now()
	if delta != nil {
		sess.ds.Update(delta.Changed, delta.Removed)
	}
	base, ext, reused, err := sess.ds.AnalyzeFrom(static.Options{
		Mode: static.WithHints, SolverWorkers: s.solverWorkers,
	}, sess.hintSource(s.approxDeadline))
	ar := sess.hints
	switch {
	case ar == nil:
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("static: %w", err)
	}

	resp = &analyzeResponse{
		Reused:          reused,
		HintCount:       ar.Hints.Count(),
		VisitedRatio:    ar.VisitedRatio(),
		Baseline:        summarize(base),
		Extended:        summarize(ext),
		DegradedModules: ext.DegradedModules,
		DurationMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, f := range ar.Faults {
		resp.Faults = append(resp.Faults, f.String())
	}
	for _, f := range ext.Faults {
		resp.Faults = append(resp.Faults, f.String())
	}
	return resp, nil
}

func summarize(res *static.Result) graphSummary {
	m := res.Metrics()
	return graphSummary{
		CallEdges:          m.CallEdges,
		ReachableFunctions: m.ReachableFunctions,
		ResolvedPct:        m.ResolvedPct,
		MonomorphicPct:     m.MonomorphicPct,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func main() {
	var (
		addr           = flag.String("addr", ":8791", "listen address")
		approxDeadline = flag.Duration("approx-deadline", 2*time.Second, "per-worklist-item deadline of the pre-analysis, and per-entry-module deadline of the concrete run behind /provenance; tripped items become contained faults and degrade their module's hints (0 = unlimited)")
		maxSessions    = flag.Int("max-sessions", 64, "maximum resident sessions; opening one more evicts the least recently used")
		solverWorkers  = flag.Int("solver-workers", 0, "epoch-engine scan workers per analysis (0 and 1 both mean one worker — reports are identical at every value)")
		maxConcurrency = flag.Int("max-concurrency", 0, "maximum analyses running at once across all sessions (0 = NumCPU); excess requests queue")
	)
	flag.Parse()

	srv := newServer(*approxDeadline, *maxSessions, *solverWorkers, *maxConcurrency)
	log.Printf("analyzed: listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.handler()))
}
