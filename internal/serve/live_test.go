package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"utlb/internal/telemetry"
	"utlb/internal/xlate"
)

// post sends body as JSON to path and returns status + response body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(out)
}

// newLiveXlate builds a translation service carrying a telemetry sink
// on a deterministic manual clock, so live-endpoint tests assert exact
// window arithmetic.
func newLiveXlate(t *testing.T) (*xlate.Service, *telemetry.ManualClock) {
	t.Helper()
	xl, err := xlate.New(xlate.Config{Shards: 4, Entries: 256, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk := telemetry.NewManualClock(0)
	clk.SetTick(1000) // 1 us per clock read: every op has a real duration
	sink, err := telemetry.New(telemetry.Config{
		Shards: 4, WindowNs: 1_000_000_000, Windows: 8,
		SampleEvery: 2,
		SLOTargetNs: 50_000_000, SLOBudget: 0.1,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := xl.AttachTelemetry(sink); err != nil {
		t.Fatal(err)
	}
	return xl, clk
}

// newLiveServer serves a newLiveXlate service.
func newLiveServer(t *testing.T) (*httptest.Server, *telemetry.ManualClock) {
	t.Helper()
	xl, clk := newLiveXlate(t)
	ts := httptest.NewServer(NewWith(xl).Handler())
	t.Cleanup(ts.Close)
	return ts, clk
}

// TestLiveEndpointsDisabled: without a sink, every live endpoint
// answers 503 so scrapers can tell "disabled" from "idle".
func TestLiveEndpointsDisabled(t *testing.T) {
	xl, err := xlate.New(xlate.Config{Shards: 2, Entries: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(xl).Handler())
	defer ts.Close()
	for _, path := range []string{"/api/live/series", "/api/live/shards", "/api/live/slo", "/api/live/trace"} {
		if code, body := get(t, ts, path); code != http.StatusServiceUnavailable || !strings.Contains(body, "disabled") {
			t.Errorf("%s without telemetry: code %d body %.80q, want 503", path, code, body)
		}
	}
	// /metrics must still work (no live section, runtime section present).
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK || strings.Contains(body, "utlb_live_") {
		t.Errorf("/metrics without telemetry: code %d, live section present: %v",
			code, strings.Contains(body, "utlb_live_"))
	}
	if !strings.Contains(body, "utlb_go_goroutines") {
		t.Error("/metrics missing runtime health section")
	}
}

// TestLiveEndpoints drives translation traffic and checks the series,
// shard heatmap, SLO report, sampled traces, and joined /metrics all
// reflect it.
func TestLiveEndpoints(t *testing.T) {
	ts, clk := newLiveServer(t)

	// Window 0: insert 64 translations, look them all up (hits), plus
	// 16 lookups of an unknown process (misses).
	var keys []string
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("7:%d", i))
	}
	if code, _ := get(t, ts, "/api/xlate/insert?keys="+strings.Join(keys, ",")); code != http.StatusOK {
		t.Fatal("insert failed")
	}
	code, body := get(t, ts, "/api/xlate/lookup?keys="+strings.Join(keys, ","))
	var lr xlateLookupResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &lr) != nil || lr.Hits != 64 {
		t.Fatalf("lookup: code %d body %.200q", code, body)
	}
	var missKeys []string
	for i := 0; i < 16; i++ {
		missKeys = append(missKeys, fmt.Sprintf("99:%d", i))
	}
	get(t, ts, "/api/xlate/lookup?keys="+strings.Join(missKeys, ","))

	// Close window 0.
	clk.Set(1_500_000_000)

	code, body = get(t, ts, "/api/live/series")
	if code != http.StatusOK {
		t.Fatalf("series: code %d", code)
	}
	var series telemetry.Series
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if len(series.Points) < 2 {
		t.Fatalf("series has %d points, want closed window 0 + open window 1: %s", len(series.Points), body)
	}
	w0 := series.Points[0]
	if w0.Open || w0.Lookups != 80 || w0.Hits != 64 || w0.Misses != 16 || w0.Inserts != 64 {
		t.Errorf("window 0 = %+v, want 80 lookups (64 hits), 64 inserts", w0)
	}
	if w0.P99Ns <= 0 || w0.Ops <= 0 {
		t.Errorf("window 0 has no timed ops: %+v", w0)
	}

	code, body = get(t, ts, "/api/live/shards")
	if code != http.StatusOK {
		t.Fatalf("shards: code %d", code)
	}
	var shards liveShardsResponse
	if err := json.Unmarshal([]byte(body), &shards); err != nil {
		t.Fatalf("shards JSON: %v", err)
	}
	if shards.Shards != 4 || len(shards.Rows) != 4 {
		t.Fatalf("shards = %d rows %d, want 4/4", shards.Shards, len(shards.Rows))
	}
	var lookups, occupancy, permille int64
	for _, row := range shards.Rows {
		lookups += row.Lookups
		occupancy += row.Occupancy
		permille += row.LoadPermille
		if row.Capacity != 256 {
			t.Errorf("shard %d capacity = %d, want 256", row.Shard, row.Capacity)
		}
	}
	if lookups != 80 || occupancy != 64 {
		t.Errorf("heatmap totals: %d lookups, %d occupancy, want 80/64", lookups, occupancy)
	}
	if permille < 900 || permille > 1000 {
		t.Errorf("load permille sums to %d, want ~1000", permille)
	}

	code, body = get(t, ts, "/api/live/slo")
	if code != http.StatusOK {
		t.Fatalf("slo: code %d", code)
	}
	var slo telemetry.SLOReport
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatalf("slo JSON: %v", err)
	}
	if slo.TargetP99Ns != 50_000_000 || slo.Ops == 0 {
		t.Errorf("slo = %+v, want the configured target with ops recorded", slo)
	}
	// Manual clock: every shard segment took exactly one 1 us tick,
	// far under the 50 ms target.
	if !slo.Compliant || slo.Slow != 0 {
		t.Errorf("slo = %+v, want compliant with zero slow ops", slo)
	}

	// Sampled chains (SampleEvery=2, several requests) export as a
	// Chrome trace.
	code, body = get(t, ts, "/api/live/trace")
	if code != http.StatusOK || !strings.Contains(body, "xlate_req") || !strings.Contains(body, "xlate_shard") {
		t.Errorf("live trace: code %d, body %.200q", code, body)
	}

	// The joined /metrics carries all three families.
	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		`utlb_xlate_lookups_total{shard="all"} 80`,
		`utlb_xlate_capacity{shard="all"} 1024`,
		"utlb_live_op_duration_ns_count",
		"utlb_live_slo_compliant 1",
		"utlb_go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestXlatePostBodies: lookup and insert accept POST JSON batches.
func TestXlatePostBodies(t *testing.T) {
	ts, _ := newLiveServer(t)
	code, body := post(t, ts, "/api/xlate/insert",
		`{"keys":[{"pid":1,"vpn":10},{"pid":1,"vpn":11},{"pid":2,"vpn":10,"pfn":777}]}`)
	var ir xlateInsertResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &ir) != nil || ir.Inserted != 3 {
		t.Fatalf("POST insert: code %d body %.200q", code, body)
	}
	code, body = post(t, ts, "/api/xlate/lookup",
		`{"keys":[{"pid":1,"vpn":10},{"pid":2,"vpn":10},{"pid":3,"vpn":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("POST lookup: code %d", code)
	}
	var resp xlateLookupResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("lookup response: %v", err)
	}
	if resp.Lookups != 3 || resp.Hits != 2 {
		t.Fatalf("POST lookup = %d/%d hits, want 3 lookups 2 hits", resp.Lookups, resp.Hits)
	}
	// The explicit pfn survived the round trip.
	if !resp.Results[1].Hit || resp.Results[1].PFN != 777 {
		t.Errorf("explicit-pfn key came back %+v, want hit with pfn 777", resp.Results[1])
	}
}

// TestXlateErrorPaths asserts malformed requests are client errors
// and — the part a load generator depends on — that rejected requests
// never perturb service counters.
func TestXlateErrorPaths(t *testing.T) {
	ts, _ := newLiveServer(t)
	// Seed some state so stats are nonzero.
	get(t, ts, "/api/xlate/insert?keys=1:1,1:2")
	get(t, ts, "/api/xlate/lookup?keys=1:1,1:3")
	_, statsBefore := get(t, ts, "/api/xlate/stats")

	bad := []struct {
		name, method, path, body string
	}{
		{"missing params", "GET", "/api/xlate/lookup", ""},
		{"bad pid", "GET", "/api/xlate/lookup?pid=abc&vpn=1", ""},
		{"bad vpn", "GET", "/api/xlate/lookup?pid=1&vpn=xyz", ""},
		{"bad key syntax", "GET", "/api/xlate/lookup?keys=1", ""},
		{"bad key pfn", "GET", "/api/xlate/insert?keys=1:2:zzz", ""},
		{"unknown-pid invalidate", "GET", "/api/xlate/invalidate?pid=abc", ""},
		{"oversized batch", "GET", "/api/xlate/lookup?keys=" + strings.Repeat("1:1,", 4096) + "1:1", ""},
		{"malformed JSON", "POST", "/api/xlate/lookup", `{"keys":[{"pid":1,`},
		{"unknown field", "POST", "/api/xlate/lookup", `{"keyz":[{"pid":1,"vpn":2}]}`},
		{"empty batch", "POST", "/api/xlate/lookup", `{"keys":[]}`},
		{"empty insert batch", "POST", "/api/xlate/insert", `{}`},
	}
	for _, tc := range bad {
		var code int
		var body string
		if tc.method == "POST" {
			code, body = post(t, ts, tc.path, tc.body)
		} else {
			code, body = get(t, ts, tc.path)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d body %.120q, want 400", tc.name, code, body)
		}
	}

	// Oversized POST body: still a client error, not a handler panic.
	huge := `{"keys":[` + strings.Repeat(`{"pid":1,"vpn":2},`, 4200) + `{"pid":1,"vpn":2}]}`
	if code, _ := post(t, ts, "/api/xlate/lookup", huge); code != http.StatusBadRequest {
		t.Errorf("oversized POST batch: code %d, want 400", code)
	}

	_, statsAfter := get(t, ts, "/api/xlate/stats")
	if statsBefore != statsAfter {
		t.Errorf("rejected requests perturbed service stats:\nbefore: %.400s\nafter: %.400s",
			statsBefore, statsAfter)
	}
}
