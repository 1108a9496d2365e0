package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get fetches path from the test server and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpointsSmoke walks every endpoint once against a live
// httptest server: index, analyze (which runs an experiment), metrics,
// runs listing, trace download, and pprof.
func TestServeEndpointsSmoke(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/"); code != http.StatusOK || !strings.Contains(body, "utlbsim observability") {
		t.Fatalf("index: code %d body %.80q", code, body)
	}

	// Analyze runs table6 and caches the result.
	code, body := get(t, ts, "/api/analyze?exp=t6&scale=0.03&apps=fft&topk=2")
	if code != http.StatusOK {
		t.Fatalf("analyze: code %d body %.200q", code, body)
	}
	var rep struct {
		Events      int64 `json:"events"`
		Experiments []struct {
			Experiment string `json:"experiment"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("analyze JSON: %v", err)
	}
	if rep.Events == 0 || len(rep.Experiments) != 1 || rep.Experiments[0].Experiment != "table6" {
		t.Fatalf("analyze content: events=%d experiments=%+v", rep.Events, rep.Experiments)
	}

	// Metrics without params aggregates the cached run.
	if code, body := get(t, ts, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "utlb_events_total") {
		t.Fatalf("metrics: code %d body %.120q", code, body)
	}

	// The runs listing knows the cached result and links its trace.
	code, body = get(t, ts, "/api/runs")
	if code != http.StatusOK {
		t.Fatalf("runs: code %d", code)
	}
	var infos []struct {
		Slug     string `json:"slug"`
		TraceURL string `json:"trace_url"`
		Events   int64  `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("runs JSON: %v", err)
	}
	if len(infos) != 1 || infos[0].Events != rep.Events {
		t.Fatalf("runs listing: %+v (want 1 entry with %d events)", infos, rep.Events)
	}

	// The trace endpoint serves a loadable Chrome trace.
	code, body = get(t, ts, infos[0].TraceURL)
	if code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("trace: code %d body %.120q", code, body)
	}

	if code, body := get(t, ts, "/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Fatalf("pprof: code %d body %.120q", code, body)
	}
}

// TestServeBadRequests pins the 400/404 paths.
func TestServeBadRequests(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	for _, path := range []string{
		"/api/analyze",                                    // missing exp
		"/api/analyze?exp=nope",                           // unknown experiment
		"/api/analyze?exp=t6&scale=2",                     // scale out of range
		"/api/analyze?exp=t6&topk=0",                      // bad topk
		"/metrics?exp=nope",                               // unknown experiment via metrics
		"/api/analyze?exp=t6&seed=abc",                    // unparsable seed
		"/api/analyze?exp=t4&apps=nope",                   // unknown application
		"/api/analyze?exp=t4&scale=0.001",                 // no page per process at this scale
		"/metrics?exp=t6&scale=0.003&apps=barnes",         // nor for barnes at this one
		"/api/analyze?exp=ablation-multiprog&scale=0.005", // whose runs halve it
	} {
		if code, _ := get(t, ts, path); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", path, code)
		}
	}
	// The rejection names the valid set, and happens before the run
	// lock and the trace store are touched.
	if _, body := get(t, ts, "/api/analyze?exp=t4&apps=fft,nope"); !strings.Contains(body, `"nope"`) || !strings.Contains(body, "water-spatial") {
		t.Errorf("unknown application: body %q does not name it and the valid set", body)
	}
	// A scale too small to generate used to divide by zero on a pool
	// goroutine and take the process down: now it is refused by name,
	// nothing ran, and the server answers the next request.
	if _, body := get(t, ts, "/api/analyze?exp=t4&scale=0.001"); !strings.Contains(body, "scale 0.001 is too small") {
		t.Errorf("tiny scale: body %q does not say so", body)
	}
	if code, body := get(t, ts, "/api/runs"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("/api/runs after the rejections: code %d body %q, want an empty list", code, body)
	}
	if code, _ := get(t, ts, "/api/runs/absent/trace"); code != http.StatusNotFound {
		t.Error("missing trace did not 404")
	}
	if code, _ := get(t, ts, "/nope"); code != http.StatusNotFound {
		t.Error("unknown path did not 404")
	}
}

// TestServeBoundsExperimentRuns: while one run is held inside the
// execution lock and maxRuns-1 more wait for it, a request for yet
// another run is refused at once with 429 and Retry-After instead of
// queueing, and runs nothing. A duplicate of a run in flight is not
// refused: it joins its leader. Once the runs drain, the refused run
// is admitted.
func TestServeBoundsExperimentRuns(t *testing.T) {
	srv := New()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var runs atomic.Int64
	srv.runHook = func() {
		runs.Add(1)
		once.Do(func() { close(entered) })
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	path := func(seed int) string {
		return fmt.Sprintf("/api/analyze?exp=t6&scale=0.02&apps=fft&topk=2&seed=%d", seed)
	}

	var wg sync.WaitGroup
	codes := make([]int, maxRuns+1)
	fetch := func(i int, p string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + p)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	fetch(0, path(0))
	<-entered // run 0 holds runMu
	for i := 1; i < maxRuns; i++ {
		fetch(i, path(i))
	}
	for admitted := 0; admitted < maxRuns; {
		srv.mu.RLock()
		admitted = len(srv.inflight)
		srv.mu.RUnlock()
		runtime.Gosched()
	}
	fetch(maxRuns, path(0)) // a duplicate of the held run

	// Were it queued, this request would wait for the release below.
	refused := &http.Client{Timeout: 10 * time.Second}
	if resp, err := refused.Get(ts.URL + path(maxRuns)); err != nil {
		t.Errorf("run %d past the bound was not refused: %v", maxRuns+1, err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("run %d past the bound: code %d, Retry-After %q, body %q; want 429 with Retry-After",
				maxRuns+1, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: code %d, want 200", i, code)
		}
	}
	if got := runs.Load(); got != maxRuns {
		t.Errorf("%d runs executed, want %d: the refused run ran, or the duplicate did", got, maxRuns)
	}
	if code, _ := get(t, ts, path(maxRuns)); code != http.StatusOK {
		t.Errorf("the refused run after the drain: code %d, want 200", code)
	}
}

// TestServeAnalyzeParallelWidths asserts /api/analyze returns
// byte-identical JSON whether the experiment ran at pool width 1 or 8:
// the parallel parameter is part of the cache key, so both requests
// really execute, and the analysis is a pure function of the
// deterministically merged collector.
func TestServeAnalyzeParallelWidths(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	base := "/api/analyze?exp=t6&scale=0.03&apps=water-spatial,fft&topk=3&parallel="
	code1, body1 := get(t, ts, base+"1")
	code8, body8 := get(t, ts, base+"8")
	if code1 != http.StatusOK || code8 != http.StatusOK {
		t.Fatalf("codes %d/%d", code1, code8)
	}
	if body1 != body8 {
		t.Fatalf("analyze JSON diverged across widths (lens %d vs %d)", len(body1), len(body8))
	}
	// Both widths are cached separately.
	if _, body := get(t, ts, "/api/runs"); strings.Count(body, `"slug"`) != 2 {
		t.Fatalf("expected 2 cached results, got: %.300s", body)
	}
}

// TestServeMetricsMatchesAnalyzeSource asserts /metrics?exp= and the
// cached analyze run see the same timeline (same cache entry, not a
// re-execution with different state).
func TestServeMetricsMatchesAnalyzeSource(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	q := "?exp=fig7&scale=0.03&apps=fft"
	if code, _ := get(t, ts, "/api/analyze"+q); code != http.StatusOK {
		t.Fatal("analyze failed")
	}
	code, m1 := get(t, ts, "/metrics"+q)
	if code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	code, m2 := get(t, ts, "/metrics"+q)
	// The runtime-health tail (utlb_go_*: heap, goroutines, GC) is live
	// state and legitimately differs between scrapes; the simulation and
	// service sections before it must be byte-identical.
	deterministic := func(m string) string {
		if i := strings.Index(m, "# HELP utlb_go_"); i >= 0 {
			return m[:i]
		}
		return m
	}
	if code != http.StatusOK || deterministic(m1) != deterministic(m2) {
		t.Fatal("metrics over the same cached result diverged")
	}
}
