package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"utlb/internal/xlate"
)

// wireCase is one request of the wire script.
type wireCase struct {
	name   string // what the golden calls it
	method string // GET unless "POST"
	path   string
	body   string
}

// vpnList spells pid:lo, pid:lo+1, ... pid:hi-1, each with suffix
// appended (":pfn" for explicit frames).
func vpnList(pid, lo, hi int, suffix func(vpn int) string) string {
	var parts []string
	for vpn := lo; vpn < hi; vpn++ {
		part := strconv.Itoa(pid) + ":" + strconv.Itoa(vpn)
		if suffix != nil {
			part += suffix(vpn)
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, ",")
}

// wireScript is every shape the /api/xlate/{lookup,insert,invalidate}
// codec reads and writes, in an order that makes each reply depend on
// the ones before it: all three key syntaxes, both methods, hits,
// misses, a hit on frame 0 (whose "pfn" omitempty drops), evicting
// inserts, both invalidation forms, the query-string corners
// url.Query defines (escapes, repeats, a dropped pair) and the body of
// every 400 the handler tests name.
func wireScript() []wireCase {
	long := strings.Repeat("1:1,", maxBatchKeys) + "1:1"
	hugeBody := `{"keys":[` + strings.Repeat(`{"pid":1,"vpn":2},`, 4200) + `{"pid":1,"vpn":2}]}`
	overLimitBody := `{"keys":[` + strings.Repeat(`{"pid":1,"vpn":2},`, maxBatchKeys) + `{"pid":1,"vpn":2}]}`
	pfnOf := func(vpn int) string { return ":" + strconv.Itoa(1000+vpn) }
	return []wireCase{
		{name: "lookup cold miss, single form", path: "/api/xlate/lookup?pid=1&vpn=42"},
		{name: "insert pairs", path: "/api/xlate/insert?keys=" + vpnList(1, 0, 8, nil)},
		{name: "insert triples, one frame 0", path: "/api/xlate/insert?keys=3:7:999,3:8:0,3:9:18446744073709551615"},
		{name: "insert single form", path: "/api/xlate/insert?pid=4&vpn=1"},
		{name: "insert single form, explicit pfn", path: "/api/xlate/insert?pid=4&vpn=2&pfn=55"},
		{name: "lookup all-hit batch", path: "/api/xlate/lookup?keys=" + vpnList(1, 0, 8, nil)},
		{name: "lookup mixed hit/miss", path: "/api/xlate/lookup?keys=1:0,9:9,3:7,1:7,8:1,4:2,4:1"},
		{name: "lookup hit on pfn 0", path: "/api/xlate/lookup?keys=3:8"},
		{name: "lookup hit on the largest pfn", path: "/api/xlate/lookup?pid=3&vpn=9"},
		{name: "lookup single form hit", path: "/api/xlate/lookup?pid=3&vpn=7"},
		{name: "lookup single form ignores pfn", path: "/api/xlate/lookup?pid=3&vpn=7&pfn=1"},
		{name: "lookup POST", method: "POST", path: "/api/xlate/lookup",
			body: `{"keys":[{"pid":1,"vpn":0},{"pid":3,"vpn":8},{"pid":7,"vpn":7}]}`},
		{name: "insert POST", method: "POST", path: "/api/xlate/insert",
			body: `{"keys":[{"pid":5,"vpn":10},{"pid":5,"vpn":11,"pfn":777},{"pid":5,"vpn":12,"pfn":0}]}`},
		{name: "lookup POST after insert POST", method: "POST", path: "/api/xlate/lookup",
			body: `{"keys":[{"pid":5,"vpn":10},{"pid":5,"vpn":11},{"pid":5,"vpn":12,"pfn":3}]}`},
		{name: "lookup escaped keys", path: "/api/xlate/lookup?keys=1%3A0%2C1%3a1"},
		{name: "lookup repeated keys=, first wins", path: "/api/xlate/lookup?keys=1:0&keys=9:9"},
		{name: "lookup empty keys= falls to pid/vpn", path: "/api/xlate/lookup?keys=&pid=1&vpn=1"},
		{name: "lookup bad escape drops the pair", path: "/api/xlate/lookup?keys=%zz&pid=1&vpn=2"},
		{name: "lookup semicolon drops the pair", path: "/api/xlate/lookup?keys=9:9;x&pid=1&vpn=3"},
		{name: "400 plus is a space", path: "/api/xlate/lookup?keys=1:0,+1:1"},
		{name: "lookup escaped name", path: "/api/xlate/lookup?k%65ys=1:4"},
		{name: "invalidate keys form", path: "/api/xlate/invalidate?keys=1:0,1:1,9:9"},
		{name: "invalidate single form", path: "/api/xlate/invalidate?pid=1&vpn=2"},
		{name: "invalidate single form, absent", path: "/api/xlate/invalidate?pid=1&vpn=2"},
		{name: "invalidate process form", path: "/api/xlate/invalidate?pid=3"},
		{name: "invalidate process form, nothing left", path: "/api/xlate/invalidate?pid=3"},
		{name: "lookup after invalidations", path: "/api/xlate/lookup?keys=" + vpnList(1, 0, 4, nil) + ",3:7,3:8"},
		{name: "insert pairs with evictions", path: "/api/xlate/insert?keys=" + vpnList(6, 0, 96, nil)},
		{name: "insert triples with evictions", path: "/api/xlate/insert?keys=" + vpnList(7, 0, 96, pfnOf)},
		{name: "lookup after evictions", path: "/api/xlate/lookup?keys=" + vpnList(7, 88, 96, nil) + "," + vpnList(6, 0, 4, nil)},

		// TestXlateBadRequests.
		{name: "400 no keys at all", path: "/api/xlate/lookup"},
		{name: "400 vpn missing", path: "/api/xlate/lookup?pid=1"},
		{name: "400 non-numeric pid", path: "/api/xlate/lookup?pid=x&vpn=1"},
		{name: "400 not pid:vpn", path: "/api/xlate/lookup?keys=1"},
		{name: "400 too many fields", path: "/api/xlate/lookup?keys=1:2:3:4"},
		{name: "400 bad pfn", path: "/api/xlate/insert?keys=1:2:x"},
		{name: "400 bad pfn, single form", path: "/api/xlate/insert?pid=1&vpn=2&pfn=x"},
		{name: "400 bad pid, process form", path: "/api/xlate/invalidate?pid=x"},
		{name: "400 pid overflows uint32", path: "/api/xlate/lookup?pid=99999999999&vpn=1"},
		{name: "400 batch one over the limit", path: "/api/xlate/lookup?keys=" + vpnList(1, 0, maxBatchKeys+1, nil)},
		// TestXlateErrorPaths.
		{name: "400 bad pid abc", path: "/api/xlate/lookup?pid=abc&vpn=1"},
		{name: "400 bad vpn", path: "/api/xlate/lookup?pid=1&vpn=xyz"},
		{name: "400 bad key pfn", path: "/api/xlate/insert?keys=1:2:zzz"},
		{name: "400 unknown-pid invalidate", path: "/api/xlate/invalidate?pid=abc"},
		{name: "400 oversized batch, trailing", path: "/api/xlate/lookup?keys=" + long},
		{name: "400 malformed JSON", method: "POST", path: "/api/xlate/lookup", body: `{"keys":[{"pid":1,`},
		{name: "400 unknown field", method: "POST", path: "/api/xlate/lookup", body: `{"keyz":[{"pid":1,"vpn":2}]}`},
		{name: "400 empty batch", method: "POST", path: "/api/xlate/lookup", body: `{"keys":[]}`},
		{name: "400 empty insert batch", method: "POST", path: "/api/xlate/insert", body: `{}`},
		{name: "400 oversized POST body", method: "POST", path: "/api/xlate/lookup", body: hugeBody},
		{name: "400 POST batch one over the limit", method: "POST", path: "/api/xlate/lookup", body: overLimitBody},
		// The scanner's own corners: where in the list the first error is,
		// and which error wins.
		{name: "400 empty part between commas", path: "/api/xlate/lookup?keys=1:1,,1:2"},
		{name: "400 trailing comma", path: "/api/xlate/lookup?keys=1:1,"},
		{name: "400 leading comma", path: "/api/xlate/lookup?keys=,1:1"},
		{name: "400 empty pid and vpn", path: "/api/xlate/lookup?keys=:"},
		{name: "400 empty vpn", path: "/api/xlate/lookup?keys=1::3"},
		{name: "400 signed pid", path: "/api/xlate/lookup?keys=-1:2"},
		{name: "400 signed vpn", path: "/api/xlate/lookup?keys=1:%2B2"},
		{name: "400 pid at 2^32", path: "/api/xlate/lookup?keys=4294967296:1"},
		{name: "400 vpn at 2^64", path: "/api/xlate/lookup?keys=1:18446744073709551616"},
		{name: "400 pfn at 2^64", path: "/api/xlate/insert?keys=1:1:18446744073709551616"},
		{name: "400 field count beats a bad pid", path: "/api/xlate/lookup?keys=x:1:2:3"},
		{name: "400 first bad key wins", path: "/api/xlate/lookup?keys=1:1,2:y,z:3"},
		{name: "400 bad key quoted", path: "/api/xlate/lookup?keys=1:%22%0A"},
		{name: "400 invalidate keys form, bad key", path: "/api/xlate/invalidate?keys=1:1,2"},
		{name: "400 invalidate nothing", path: "/api/xlate/invalidate"},
		{name: "400 invalidate vpn only", path: "/api/xlate/invalidate?vpn=3"},
	}
}

// newWireServer is a service small enough (2 shards of 32 entries)
// that the script's 96-key inserts evict.
func newWireServer(t testing.TB) *Server {
	t.Helper()
	xl, err := xlate.New(xlate.Config{Shards: 2, Entries: 32, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewWith(xl)
}

// do sends one wire case and returns status, Content-Type and body.
func (c wireCase) do(t testing.TB, ts *httptest.Server) (int, string, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if c.method == "POST" {
		resp, err = http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
	} else {
		resp, err = http.Get(ts.URL + c.path)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", c.name, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestXlateWireGolden pins the translation endpoints' wire format byte
// for byte: status, Content-Type and body of every case in wireScript,
// run in order against one small service. The golden holds the compact
// codec's bytes; -update rewrites it (read the diff first). Every 200
// body is also held to the layout rule by checkCompactReply, so a
// golden rewritten by -update cannot take in a layout change.
func TestXlateWireGolden(t *testing.T) {
	ts := httptest.NewServer(newWireServer(t).Handler())
	defer ts.Close()

	var sb strings.Builder
	replies := 0
	for _, c := range wireScript() {
		code, ctype, body := c.do(t, ts)
		if strings.HasPrefix(c.name, "400 ") != (code == http.StatusBadRequest) {
			t.Errorf("%s: status %d", c.name, code)
		}
		method := c.method
		if method == "" {
			method = "GET"
		}
		fmt.Fprintf(&sb, "== %s: %s %.100s", c.name, method, c.path)
		if len(c.path) > 100 {
			fmt.Fprintf(&sb, "... (%d bytes)", len(c.path))
		}
		if c.body != "" {
			fmt.Fprintf(&sb, "\n-- %.100s", c.body)
			if len(c.body) > 100 {
				fmt.Fprintf(&sb, "... (%d bytes)", len(c.body))
			}
		}
		fmt.Fprintf(&sb, "\n%d %s\n%s", code, ctype, body)
		if !strings.HasSuffix(body, "\n") {
			sb.WriteString("<no newline>\n")
		}
		if code == http.StatusOK {
			replies++
			checkCompactReply(t, c, body)
		}
	}
	if replies == 0 {
		t.Fatal("wire script produced no 200 replies")
	}
	got := sb.String()

	golden := filepath.Join("testdata", "xlate_wire.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire golden differs at line %d:\n got: %.200s\nwant: %.200s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// checkCompactReply holds one 200 body of the wire script to the
// codec's layout: it is json.Compact of itself plus exactly one
// newline, and decodes with DisallowUnknownFields into its endpoint's
// reply struct in xlate_oracle_test.go, which json.Marshal turns back
// into the same bytes (member order and pfn's omission included).
func checkCompactReply(t *testing.T, c wireCase, body string) {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(body)); err != nil {
		t.Errorf("%s: %v in %.200q", c.name, err, body)
		return
	}
	if compact.WriteByte('\n'); body != compact.String() {
		t.Errorf("%s: body is not compact JSON plus one newline:\n%.200q", c.name, body)
	}
	var reply any
	switch {
	case strings.HasPrefix(c.path, "/api/xlate/lookup"):
		reply = new(xlateLookupResponse)
	case strings.HasPrefix(c.path, "/api/xlate/insert"):
		reply = new(xlateInsertResponse)
	default:
		reply = new(xlateInvalidateResponse)
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(reply); err != nil {
		t.Errorf("%s: %v in %.200q", c.name, err, body)
		return
	}
	again, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	if string(again)+"\n" != body {
		t.Errorf("%s: body\n%.200s\nre-encodes as\n%.200s", c.name, body, again)
	}
}
