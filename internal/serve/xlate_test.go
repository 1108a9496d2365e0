package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"utlb/internal/units"
	"utlb/internal/xlate"
)

func TestXlateEndpoints(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	// Lookup before insert: a clean miss.
	code, body := get(t, ts, "/api/xlate/lookup?pid=1&vpn=42")
	if code != http.StatusOK {
		t.Fatalf("lookup: code %d body %.200q", code, body)
	}
	var lr struct {
		Lookups int64 `json:"lookups"`
		Hits    int64 `json:"hits"`
		Results []struct {
			Hit bool      `json:"hit"`
			PFN units.PFN `json:"pfn"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Lookups != 1 || lr.Hits != 0 {
		t.Fatalf("cold lookup = %+v", lr)
	}

	// Batched insert with synthetic frames, then batched lookup.
	code, body = get(t, ts, "/api/xlate/insert?keys=1:42,1:43,2:42")
	var ir xlateInsertResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &ir) != nil || ir.Inserted != 3 {
		t.Fatalf("insert: code %d body %.200q", code, body)
	}
	code, body = get(t, ts, "/api/xlate/lookup?keys=1:42,1:43,2:42,9:9")
	if code != http.StatusOK {
		t.Fatalf("batched lookup: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Lookups != 4 || lr.Hits != 3 {
		t.Fatalf("batched lookup = lookups %d hits %d", lr.Lookups, lr.Hits)
	}
	// Synthetic frames round-trip: the served PFN is the deterministic
	// function of the key, so clients can verify translations.
	want := xlate.SyntheticPFN(xlate.Key{PID: 1, VPN: 42})
	if !lr.Results[0].Hit || lr.Results[0].PFN != want {
		t.Fatalf("results[0] = %+v, want synthetic pfn %d", lr.Results[0], want)
	}

	// Explicit frame wins over the synthetic one.
	get(t, ts, "/api/xlate/insert?keys=3:7:999")
	_, body = get(t, ts, "/api/xlate/lookup?pid=3&vpn=7")
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Hits != 1 || lr.Results[0].PFN != 999 {
		t.Fatalf("explicit-pfn lookup = %+v", lr)
	}

	// Single-key invalidate, then process-wide invalidate.
	code, body = get(t, ts, "/api/xlate/invalidate?pid=1&vpn=42")
	var dr xlateInvalidateResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &dr) != nil || dr.Dropped != 1 {
		t.Fatalf("invalidate: code %d body %.200q", code, body)
	}
	code, body = get(t, ts, "/api/xlate/invalidate?pid=1")
	dr = xlateInvalidateResponse{}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &dr) != nil || dr.Dropped != 1 {
		t.Fatalf("process invalidate: code %d body %.200q", code, body)
	}
	_, body = get(t, ts, "/api/xlate/lookup?keys=1:42,1:43")
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Hits != 0 {
		t.Fatalf("pid 1 still resident after process invalidate: %+v", lr)
	}

	// Stats reflect the traffic and totals equal the shard sums.
	code, body = get(t, ts, "/api/xlate/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	var st xlate.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total.Lookups == 0 || st.Total.Lookups != st.Total.Hits+st.Total.Misses {
		t.Fatalf("stats totals incoherent: %+v", st.Total)
	}
	var sum xlate.Counters
	for _, sh := range st.PerShard {
		sum.Lookups += sh.Lookups
		sum.Hits += sh.Hits
		sum.Misses += sh.Misses
	}
	if sum.Lookups != st.Total.Lookups || sum.Hits != st.Total.Hits {
		t.Fatalf("per-shard sums %+v disagree with total %+v", sum, st.Total)
	}
}

func TestXlateBadRequests(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	bad := []string{
		"/api/xlate/lookup",                       // no keys at all
		"/api/xlate/lookup?pid=1",                 // vpn missing
		"/api/xlate/lookup?pid=x&vpn=1",           // non-numeric pid
		"/api/xlate/lookup?keys=1",                // not pid:vpn
		"/api/xlate/lookup?keys=1:2:3:4",          // too many fields
		"/api/xlate/insert?keys=1:2:x",            // bad pfn
		"/api/xlate/insert?pid=1&vpn=2&pfn=x",     // bad pfn (single form)
		"/api/xlate/invalidate?pid=x",             // bad pid (process form)
		"/api/xlate/lookup?pid=99999999999&vpn=1", // pid overflows uint32
	}
	for _, path := range bad {
		if code, _ := get(t, ts, path); code != http.StatusBadRequest {
			t.Errorf("GET %s: code %d, want 400", path, code)
		}
	}

	// A batch over the limit is rejected rather than holding shard
	// locks for unbounded work.
	keys := make([]string, maxBatchKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("1:%d", i)
	}
	path := "/api/xlate/lookup?keys=" + strings.Join(keys, ",")
	if code, body := get(t, ts, path); code != http.StatusBadRequest || !strings.Contains(body, "exceeds limit") {
		t.Errorf("oversized batch: code %d body %.120q", code, body)
	}
}

// The /metrics scrape surface includes the live translation service's
// per-shard counters next to the simulation metrics.
func TestMetricsIncludeXlate(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	get(t, ts, "/api/xlate/insert?keys=1:1,1:2")
	get(t, ts, "/api/xlate/lookup?keys=1:1,1:2,1:3")
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	want := []string{
		`utlb_xlate_lookups_total{shard="all"} 3`,
		`utlb_xlate_hits_total{shard="all"} 2`,
		`utlb_xlate_misses_total{shard="all"} 1`,
		`utlb_xlate_occupancy{shard="all"} 2`,
	}
	for _, line := range want {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// Read-only endpoints and xlate traffic must complete while an
// experiment holds the execution lock. The runHook blocks the leader
// mid-execution; every probe below must return before it is released —
// a deterministic proof, not a timing race.
func TestReadOnlyAndXlateTrafficDuringExperiment(t *testing.T) {
	srv := New()
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.runHook = func() {
		close(entered)
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		resp, err := http.Get(ts.URL + "/api/analyze?exp=t6&scale=0.02&apps=fft&topk=2")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("leader: status %d", resp.StatusCode)
		}
	}()
	<-entered // the experiment is now in flight, holding runMu

	// While it runs, every non-executing endpoint answers.
	probes := []string{
		"/",
		"/metrics", // no exp param: cached runs only, no execution
		"/api/runs",
		"/api/xlate/insert?keys=1:10,1:11",
		"/api/xlate/lookup?keys=1:10,1:11,1:12",
		"/api/xlate/invalidate?pid=1&vpn=11",
		"/api/xlate/stats",
	}
	for _, path := range probes {
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Errorf("GET %s during experiment: code %d body %.120q", path, code, body)
		}
	}

	close(release)
	<-leaderDone
}

// Satellite: the FIFO result cache under the concurrent access
// pattern. Mix xlate traffic, cached analyze reads, and an in-flight
// experiment under -race.
func TestMixedTrafficRace(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	// Warm one result so analyze/metrics reads below are cache hits.
	warm := "/api/analyze?exp=t6&scale=0.02&apps=fft&topk=2"
	if code, body := get(t, ts, warm); code != http.StatusOK {
		t.Fatalf("warmup: code %d body %.200q", code, body)
	}

	paths := []string{
		warm, // cached analyze read
		"/metrics",
		"/api/runs",
		"/api/analyze?exp=t6&scale=0.02&apps=radix&topk=2", // forces a fresh run in flight
		"/api/xlate/insert?keys=1:1,2:2,3:3,4:4",
		"/api/xlate/lookup?keys=1:1,2:2,3:3,4:4,5:5",
		"/api/xlate/invalidate?pid=3",
		"/api/xlate/stats",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The service stayed coherent through the mixed load.
	_, body := get(t, ts, "/api/xlate/stats")
	var st xlate.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total.Lookups != st.Total.Hits+st.Total.Misses {
		t.Fatalf("xlate totals incoherent after mixed load: %+v", st.Total)
	}
}

// Duplicate concurrent requests for the same uncached slug are
// single-flighted: the hook (inside the execution critical section)
// must fire exactly once for N identical requests.
func TestSingleFlightDeduplicates(t *testing.T) {
	srv := New()
	var mu sync.Mutex
	runs := 0
	srv.runHook = func() {
		mu.Lock()
		runs++
		mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/analyze?exp=t6&scale=0.02&apps=fft&topk=2")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Fatalf("experiment ran %d times for identical concurrent requests, want 1", runs)
	}
}
