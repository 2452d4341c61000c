package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/modules"
	"repro/internal/perf"
)

func testProjectPayload() *projectPayload {
	return &projectPayload{
		Name: "svc",
		Files: map[string]string{
			"/app/index.js": "var lib = require('./lib');\nlib.go();\n",
			"/app/lib.js":   "exports.go = function go() { return 1; };\nexports.extra = function extra() { return 2; };\n",
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
}

func post(t *testing.T, ts *httptest.Server, req analyzeRequest) (int, analyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp analyzeResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return res.StatusCode, resp
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(2*time.Second, 64, 0, 0).handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestAnalyzeFullProject(t *testing.T) {
	ts := newTestServer(t)
	status, resp := post(t, ts, analyzeRequest{Project: testProjectPayload()})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Session == "" {
		t.Error("no session id assigned")
	}
	if resp.Reused {
		t.Error("first analysis reported Reused")
	}
	if resp.Extended.CallEdges == 0 || resp.Extended.ReachableFunctions == 0 {
		t.Errorf("empty extended graph: %+v", resp.Extended)
	}
	if len(resp.Faults) != 0 {
		t.Errorf("unexpected faults: %v", resp.Faults)
	}
}

func TestAnalyzeNoopDeltaReuses(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	status, again := post(t, ts, analyzeRequest{Session: full.Session, Delta: &deltaPayload{}})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !again.Reused {
		t.Error("no-op delta did not reuse the memoized fixpoint")
	}
	if again.Extended != full.Extended || again.Baseline != full.Baseline {
		t.Errorf("reused metrics differ: %+v vs %+v", again.Extended, full.Extended)
	}
}

// TestAnalyzeDeltaMatchesFromScratch is the service-level form of the delta
// soundness contract: a session that absorbed an edit via /analyze delta
// must report exactly the metrics of a fresh session given the edited files.
func TestAnalyzeDeltaMatchesFromScratch(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	edited := "var lib = require('./lib');\nlib.go();\nlib.extra();\n"
	status, delta := post(t, ts, analyzeRequest{
		Session: full.Session,
		Delta:   &deltaPayload{Changed: map[string]string{"/app/index.js": edited}},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if delta.Reused {
		t.Error("edit delta reported Reused")
	}
	if delta.Extended == full.Extended {
		t.Error("edit did not change extended metrics — lib.extra() call not analyzed")
	}

	scratch := testProjectPayload()
	scratch.Files["/app/index.js"] = edited
	_, fresh := post(t, ts, analyzeRequest{Project: scratch})
	if delta.Extended != fresh.Extended || delta.Baseline != fresh.Baseline {
		t.Errorf("delta metrics differ from from-scratch:\n delta %+v / %+v\n fresh %+v / %+v",
			delta.Baseline, delta.Extended, fresh.Baseline, fresh.Extended)
	}
	if delta.HintCount != fresh.HintCount {
		t.Errorf("hint count %d after delta, %d from scratch", delta.HintCount, fresh.HintCount)
	}
}

func TestAnalyzeRemoveFile(t *testing.T) {
	ts := newTestServer(t)
	p := testProjectPayload()
	p.Files["/app/dead.js"] = "exports.unused = function unused() { return 0; };\n"
	_, full := post(t, ts, analyzeRequest{Project: p})

	status, resp := post(t, ts, analyzeRequest{
		Session: full.Session,
		Delta:   &deltaPayload{Removed: []string{"/app/dead.js"}},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	scratch := testProjectPayload()
	_, fresh := post(t, ts, analyzeRequest{Project: scratch})
	if resp.Extended != fresh.Extended {
		t.Errorf("after removal: %+v, from scratch without the file: %+v", resp.Extended, fresh.Extended)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t)

	res, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", res.StatusCode)
	}

	if status, _ := post(t, ts, analyzeRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty request: status = %d, want 400", status)
	}
	if status, _ := post(t, ts, analyzeRequest{Project: &projectPayload{Name: "x"}}); status != http.StatusBadRequest {
		t.Errorf("project without files: status = %d, want 400", status)
	}
	if status, _ := post(t, ts, analyzeRequest{Session: "nope", Delta: &deltaPayload{}}); status != http.StatusNotFound {
		t.Errorf("unknown session: status = %d, want 404", status)
	}
	if status, _ := post(t, ts, analyzeRequest{Delta: &deltaPayload{}}); status != http.StatusBadRequest {
		t.Errorf("delta without session: status = %d, want 400", status)
	}

	res, err = http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status = %d, want 405", res.StatusCode)
	}

	// An oversized body is refused from its declared length, so the test
	// writes only the headers and one byte of it over a raw connection.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /analyze HTTP/1.1\r\nHost: analyzed\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{",
		maxRequestBytes+1)
	res, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusRequestEntityTooLarge || e.Error == "" {
		t.Errorf("oversized body: status = %d, error %q; want 413 with an error", res.StatusCode, e.Error)
	}
}

// TestConcurrentDeltaRequests hammers one session with concurrent edit
// deltas. Deltas are applied inside the session lock, so under -race this
// must be clean and every request must succeed — an edit can never land
// while another request is mid-analysis.
func TestConcurrentDeltaRequests(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				src := fmt.Sprintf("var lib = require('./lib');\nlib.go();\nvar w%d_%d = 1;\n", i, j)
				status, resp := post(t, ts, analyzeRequest{
					Session: full.Session,
					Delta:   &deltaPayload{Changed: map[string]string{"/app/index.js": src}},
				})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: status %d", i, status)
					return
				}
				if resp.Extended.CallEdges == 0 {
					errs <- fmt.Sprintf("worker %d: empty graph", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentSessionsMixedRequests drives several independent sessions
// at once — each worker opens its own session, then alternates edit deltas
// and no-op deltas against it — through a server with two solver workers
// and a deliberately small -max-concurrency, so requests queue on the
// global semaphore under -race. Every response must succeed, deltas
// must land on the right session, and the per-session metrics must match a
// single-threaded run of the same requests.
func TestConcurrentSessionsMixedRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(2*time.Second, 64, 2, 2).handler())
	t.Cleanup(ts.Close)

	// Reference: the same project and edit, analyzed serially.
	_, refFull := post(t, ts, analyzeRequest{Project: testProjectPayload()})
	edited := "var lib = require('./lib');\nlib.go();\nlib.extra();\n"
	_, refEdit := post(t, ts, analyzeRequest{
		Session: refFull.Session,
		Delta:   &deltaPayload{Changed: map[string]string{"/app/index.js": edited}},
	})

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers*8)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})
			if status != http.StatusOK {
				errs <- fmt.Sprintf("worker %d: full analysis status %d", i, status)
				return
			}
			if full.Extended != refFull.Extended {
				errs <- fmt.Sprintf("worker %d: full metrics %+v, want %+v", i, full.Extended, refFull.Extended)
				return
			}
			for j := 0; j < 3; j++ {
				status, del := post(t, ts, analyzeRequest{
					Session: full.Session,
					Delta:   &deltaPayload{Changed: map[string]string{"/app/index.js": edited}},
				})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: delta status %d", i, status)
					return
				}
				if del.Extended != refEdit.Extended {
					errs <- fmt.Sprintf("worker %d: delta metrics %+v, want %+v", i, del.Extended, refEdit.Extended)
					return
				}
				// A no-op delta against the same session must reuse.
				status, noop := post(t, ts, analyzeRequest{Session: full.Session, Delta: &deltaPayload{}})
				if status != http.StatusOK || !noop.Reused {
					errs <- fmt.Sprintf("worker %d: no-op delta status %d reused %t", i, status, noop.Reused)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestAnalyzeIgnoresSolverWorkersField sends the removed per-request
// "solver_workers" override with a value no host could allocate buffers
// for. The daemon must ignore it and answer with the metrics of a plain
// request: the worker count is the operator's -solver-workers, never
// client input.
func TestAnalyzeIgnoresSolverWorkersField(t *testing.T) {
	ts := newTestServer(t)
	_, want := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	project, err := json.Marshal(testProjectPayload())
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"project": %s, "solver_workers": %d}`, project, int64(1)<<50)
	res, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.StatusCode)
	}
	var got analyzeResponse
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Baseline != want.Baseline || got.Extended != want.Extended || got.HintCount != want.HintCount {
		t.Errorf("metrics %+v / %+v, want the default request's %+v / %+v",
			got.Baseline, got.Extended, want.Baseline, want.Extended)
	}
}

func TestSessionClose(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/session?id="+full.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("close: status = %d", res.StatusCode)
	}

	// The session is gone: a delta against it is 404, closing again is 404.
	if status, _ := post(t, ts, analyzeRequest{Session: full.Session, Delta: &deltaPayload{}}); status != http.StatusNotFound {
		t.Errorf("delta on closed session: status = %d, want 404", status)
	}
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("double close: status = %d, want 404", res.StatusCode)
	}

	// Bad requests.
	res, err = http.Get(ts.URL + "/session?id=x")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /session: status = %d, want 405", res.StatusCode)
	}
}

// TestSessionLRUEviction caps the server at two sessions and opens three:
// the least recently used must be evicted, the others stay resident.
func TestSessionLRUEviction(t *testing.T) {
	ts := httptest.NewServer(newServer(2*time.Second, 2, 0, 0).handler())
	t.Cleanup(ts.Close)

	_, s1 := post(t, ts, analyzeRequest{Project: testProjectPayload()})
	_, s2 := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	// Touch s1 so s2 becomes the LRU, then open a third session.
	post(t, ts, analyzeRequest{Session: s1.Session, Delta: &deltaPayload{}})
	_, s3 := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	if status, _ := post(t, ts, analyzeRequest{Session: s2.Session, Delta: &deltaPayload{}}); status != http.StatusNotFound {
		t.Errorf("evicted LRU session still resident: status = %d, want 404", status)
	}
	for _, id := range []string{s1.Session, s3.Session} {
		if status, _ := post(t, ts, analyzeRequest{Session: id, Delta: &deltaPayload{}}); status != http.StatusOK {
			t.Errorf("session %s: status = %d, want 200", id, status)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer(t)

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("healthz: status = %d", res.StatusCode)
	}

	post(t, ts, analyzeRequest{Project: testProjectPayload()})
	res, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Sessions int `json:"sessions"`
	}
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if stats.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", stats.Sessions)
	}
}

// TestProvenanceEndpoint covers GET /provenance on both ends of the
// spectrum: a fully-resolved project (zero missed edges, but a populated
// journal) and an open fuzz reproducer with a known missed edge, where the
// attribution must name a cause for every miss.
func TestProvenanceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})

	getProv := func(query string) (int, provenanceResponse) {
		t.Helper()
		res, err := http.Get(ts.URL + "/provenance" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var resp provenanceResponse
		if res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
				t.Fatalf("decode response: %v", err)
			}
		}
		return res.StatusCode, resp
	}

	status, resp := getProv("?session=" + full.Session)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.MissedEdges != 0 {
		t.Errorf("fully-resolved project reports %d missed edges: %+v", resp.MissedEdges, resp.Causes)
	}
	if resp.JournalEdges == 0 || resp.JournalInserts == 0 {
		t.Errorf("empty provenance journal: %d edges, %d inserts", resp.JournalEdges, resp.JournalInserts)
	}

	// An open reproducer has a known missed edge; the endpoint must
	// attribute it (zero unattributed) with a non-empty cause.
	data, err := os.ReadFile("../../testdata/fuzz/open/unsound-edge-computed-call-seed36078.txt")
	if err != nil {
		t.Fatal(err)
	}
	repro, err := fuzz.ParseRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	_, open := post(t, ts, analyzeRequest{Project: &projectPayload{
		Name: "repro", Files: repro.Files, MainEntries: repro.Entries, MainPrefix: "/app",
	}})
	status, resp = getProv("?session=" + open.Session)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.MissedEdges == 0 {
		t.Fatal("open reproducer reports no missed edges")
	}
	if resp.Unattributed != 0 {
		t.Errorf("%d of %d missed edges unattributed: %+v", resp.Unattributed, resp.MissedEdges, resp.Causes)
	}
	for _, c := range resp.Causes {
		if c.Cause == "" || c.Detail == "" {
			t.Errorf("cause without taxonomy entry: %+v", c)
		}
	}
	if len(resp.Fixes) == 0 {
		t.Error("missed edges but no ranked fixes")
	}

	// Error paths.
	if status, _ := getProv("?session=s-999"); status != http.StatusNotFound {
		t.Errorf("unknown session: status = %d, want 404", status)
	}
	if status, _ := getProv(""); status != http.StatusBadRequest {
		t.Errorf("missing session: status = %d, want 400", status)
	}
	res, err := http.Post(ts.URL+"/provenance?session="+full.Session, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /provenance: status = %d, want 405", res.StatusCode)
	}
}

func getProvenance(t *testing.T, ts *httptest.Server, session string) provenanceResponse {
	t.Helper()
	res, err := http.Get(ts.URL + "/provenance?session=" + session)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/provenance status = %d", res.StatusCode)
	}
	var resp provenanceResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestProvenanceExplainsReportedGraph: /provenance explains the extended
// graph /analyze reported, not one solved with other options. mini-schema
// is the corpus project whose graph grows under the §6 eval-code hints
// (20 → 22 call edges), which /analyze does not use.
func TestProvenanceExplainsReportedGraph(t *testing.T) {
	ts := newTestServer(t)
	p := corpus.ByName("mini-schema").Project
	status, full := post(t, ts, analyzeRequest{Project: &projectPayload{
		Name: p.Name, Files: p.Files, MainEntries: p.MainEntries,
		TestEntries: p.TestEntries, MainPrefix: p.MainPrefix,
	}})
	if status != http.StatusOK {
		t.Fatalf("/analyze status = %d", status)
	}
	if full.Extended.CallEdges != 20 {
		t.Fatalf("/analyze reports %d call edges, want 20", full.Extended.CallEdges)
	}
	prov := getProvenance(t, ts, full.Session)
	if prov.Extended != full.Extended {
		t.Errorf("/provenance explained %+v, /analyze reported %+v", prov.Extended, full.Extended)
	}
	if prov.JournalEdges == 0 {
		t.Error("/provenance explained an unjournaled solve")
	}
}

// TestProvenanceSharesSessionMemo: the journal is observational, so the
// session's memo serves /analyze and /provenance alike. After /analyze and
// /provenance, a no-op /analyze is reused and a second /provenance runs no
// solve.
func TestProvenanceSharesSessionMemo(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})
	first := getProvenance(t, ts, full.Session)
	status, again := post(t, ts, analyzeRequest{Session: full.Session, Delta: &deltaPayload{}})
	if status != http.StatusOK || !again.Reused {
		t.Fatalf("no-op /analyze after /provenance: status = %d, reused = %t", status, again.Reused)
	}
	if again.Extended != full.Extended {
		t.Errorf("reused answer differs: %+v vs %+v", again.Extended, full.Extended)
	}
	iters := perf.Global().Snapshot().SolveIterations
	second := getProvenance(t, ts, full.Session)
	if solved := perf.Global().Snapshot().SolveIterations - iters; solved != 0 {
		t.Errorf("second /provenance ran a solve (%d iterations)", solved)
	}
	if second.Extended != first.Extended || second.JournalEdges != first.JournalEdges ||
		second.JournalInserts != first.JournalInserts {
		t.Errorf("second /provenance differs: %+v vs %+v", second, first)
	}
}

// TestProvenanceConcreteRunDeadline opens a session on a project whose
// concrete execution never finishes in practice (2^62 calls): /provenance
// must bound its concrete run by the server's deadline and answer instead
// of holding its concurrency slot forever.
func TestProvenanceConcreteRunDeadline(t *testing.T) {
	ts := httptest.NewServer(newServer(100*time.Millisecond, 64, 0, 1).handler())
	status, open := post(t, ts, analyzeRequest{Project: &projectPayload{
		Name:        "exp",
		Files:       map[string]string{"/app/index.js": "function f(n){if(n>60)return;f(n+1);f(n+1)} f(0);\n"},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}})
	if status != http.StatusOK {
		t.Fatalf("/analyze status = %d", status)
	}
	done := make(chan int, 1)
	go func() {
		res, err := http.Get(ts.URL + "/provenance?session=" + open.Session)
		if err != nil {
			done <- -1
			return
		}
		res.Body.Close()
		done <- res.StatusCode
	}()
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Errorf("/provenance status = %d, want 200", status)
		}
		ts.Close()
	case <-time.After(30 * time.Second):
		// The server is left running: Close would wait for the handler.
		t.Fatal("/provenance did not answer within 30s")
	}
}

// TestProvenanceReportsConcreteRunFaults checks that a concrete run cut
// short by the deadline is reported: its missed edges are measured against
// an incomplete ground truth, so the response must carry the deadline
// fault rather than look like a complete answer.
func TestProvenanceReportsConcreteRunFaults(t *testing.T) {
	ts := httptest.NewServer(newServer(100*time.Millisecond, 64, 0, 1).handler())
	defer ts.Close()
	status, open := post(t, ts, analyzeRequest{Project: &projectPayload{
		Name:        "exp",
		Files:       map[string]string{"/app/index.js": "function f(n){if(n>60)return;f(n+1);f(n+1)} f(0);\n"},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}})
	if status != http.StatusOK {
		t.Fatalf("/analyze status = %d", status)
	}
	res, err := http.Get(ts.URL + "/provenance?session=" + open.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/provenance status = %d, want 200", res.StatusCode)
	}
	var resp provenanceResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	for _, f := range resp.Faults {
		if strings.HasPrefix(f, "dyncg: "+string(fault.KindDeadline)+" ") {
			return
		}
	}
	t.Errorf("no concrete-run deadline fault in /provenance faults %q", resp.Faults)
}

// TestAnalyzeNoopDeltaAfterEditReuses: an edit re-runs the pre-analysis
// concurrently with the baseline solve and releases the superseded memos;
// the no-op delta that follows must still answer from the new memo.
func TestAnalyzeNoopDeltaAfterEditReuses(t *testing.T) {
	ts := newTestServer(t)
	_, full := post(t, ts, analyzeRequest{Project: testProjectPayload()})
	edit := &deltaPayload{Changed: map[string]string{"/app/index.js": "var lib = require('./lib');\nlib.go();\nlib.extra();\n"}}
	status, edited := post(t, ts, analyzeRequest{Session: full.Session, Delta: edit})
	if status != http.StatusOK || edited.Reused {
		t.Fatalf("edit: status = %d, reused = %t", status, edited.Reused)
	}
	status, again := post(t, ts, analyzeRequest{Session: full.Session, Delta: &deltaPayload{}})
	if status != http.StatusOK || !again.Reused {
		t.Fatalf("no-op delta after an edit: status = %d, reused = %t", status, again.Reused)
	}
	if again.Extended != edited.Extended || again.HintCount != edited.HintCount {
		t.Errorf("reused answer differs from the edit's: %+v vs %+v", again, edited)
	}
}

// TestAnalyzePreAnalysisPanicContained: the pre-analysis runs on its own
// goroutine, yet its panic reaches the request's guard: /analyze answers
// 500 and the daemon keeps serving.
func TestAnalyzePreAnalysisPanicContained(t *testing.T) {
	ts := newTestServer(t)
	runApprox = func(*modules.Project, approx.Options) (*approx.Result, error) { panic("approx exploded") }
	t.Cleanup(func() { runApprox = approx.Run })

	body, err := json.Marshal(analyzeRequest{Project: testProjectPayload()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	err = json.NewDecoder(res.Body).Decode(&e)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusInternalServerError ||
		e.Error != "analysis panicked (contained): approx exploded" {
		t.Fatalf("status = %d, error = %q (%v), want 500 with the contained panic", res.StatusCode, e.Error, err)
	}

	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic: status = %d", res.StatusCode)
	}
	runApprox = approx.Run
	if status, resp := post(t, ts, analyzeRequest{Project: testProjectPayload()}); status != http.StatusOK || resp.Extended.CallEdges == 0 {
		t.Fatalf("analysis after the panic: status = %d, %+v", status, resp.Extended)
	}
}
