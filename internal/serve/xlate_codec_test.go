package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"utlb/internal/units"
	"utlb/internal/xlate"
)

// errText is err's message, or "" for nil: the scanner must agree
// with the oracle on the exact text, since it is the 400's body.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzScanKeys holds the in-place key scanner to the Split-based
// parser it replaced: same keys, frames, withPFN and error text for
// any keys= value, per key and for the whole list.
func FuzzScanKeys(f *testing.F) {
	for _, seed := range []string{
		"", "1:2", "1:2,3:4", "1:2:3", "1:2:0,4:5", "1", "1:2:3:4", ":", "::", ":::", "1::3", ":2", "1:",
		",", "1:1,", ",1:1", "1:1,,1:2", "-1:2", "+1:2", "1:-2", "1:2:+3", " 1:2", "1:2 ", "01:002:0003",
		"4294967295:1", "4294967296:1", "1:18446744073709551615", "1:18446744073709551616",
		"1:1:18446744073709551615", "1:1:18446744073709551616", "1:1,2:y,z:3", "x:1:2:3", "1:\"\n",
		"1:0x10", "1:1_0", "١:٢", "1:2\x00",
		strings.Repeat("1:1,", maxBatchKeys-1) + "1:1",
		strings.Repeat("1:1,", maxBatchKeys) + "1:1",
		strings.Repeat(",", maxBatchKeys),
		strings.Repeat("x,", maxBatchKeys+7),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		for _, part := range strings.Split(list, ",") {
			k, pfn, with, err := scanKey(part)
			wk, wpfn, wwith, werr := oracleParseKey(part)
			if k != wk || pfn != wpfn || with != wwith || errText(err) != errText(werr) {
				t.Fatalf("scanKey(%q) = (%v, %d, %v, %q), oracle (%v, %d, %v, %q)",
					part, k, pfn, with, errText(err), wk, wpfn, wwith, errText(werr))
			}
		}
		// A scratch that held another request: stale contents must not
		// show through.
		sc := &xlateScratch{keys: make([]xlate.Key, 3), pfns: make([]units.PFN, 3)}
		err := sc.scanKeys(list)
		wkeys, wpfns, _, werr := oracleParseKeys(list)
		if errText(err) != errText(werr) {
			t.Fatalf("scanKeys(%.80q): error %q, oracle %q", list, errText(err), errText(werr))
		}
		if err != nil {
			return
		}
		if len(sc.keys) != len(wkeys) || len(sc.pfns) != len(wpfns) {
			t.Fatalf("scanKeys(%.80q): %d keys %d pfns, oracle %d/%d", list, len(sc.keys), len(sc.pfns), len(wkeys), len(wpfns))
		}
		for i := range wkeys {
			if sc.keys[i] != wkeys[i] || sc.pfns[i] != wpfns[i] {
				t.Fatalf("scanKeys(%.80q)[%d] = %v→%d, oracle %v→%d", list, i, sc.keys[i], sc.pfns[i], wkeys[i], wpfns[i])
			}
		}
	})
}

// FuzzQueryParam holds queryParam to url.ParseQuery(...).Get for the
// four names the handlers read, over any raw query.
func FuzzQueryParam(f *testing.F) {
	for _, seed := range []string{
		"", "keys=1:2", "pid=1&vpn=2", "pid=1&vpn=2&pfn=3", "keys=1%3A0%2C1%3a1", "keys=1:0&keys=9:9",
		"keys=&pid=1", "keys=%zz&pid=1", "keys=9:9;x&pid=1", "keys=1:0,+1:1", "k%65ys=1:4", "k%zzys=1&keys=2",
		"keys", "=keys", "&&keys=1&&", "keys==1", "pid=1=2", "x=keys=1", "keys=1%", "%6Beys=%31", "ke+ys=1", "pfn=%00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"keys", "pid", "vpn", "pfn"} {
			if got := queryParam(raw, name); got != want.Get(name) {
				t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, name, got, want.Get(name))
			}
		}
	})
}

// resultsFrom spells arbitrary lookup results out of fuzz bytes, ten
// per result: a flag byte (hit; force frame 0), the frame, and a
// signed probe count.
func resultsFrom(data []byte) []xlate.Result {
	out := make([]xlate.Result, 0, len(data)/10)
	for ; len(data) >= 10; data = data[10:] {
		res := xlate.Result{
			Hit:    data[0]&1 != 0,
			PFN:    units.PFN(binary.LittleEndian.Uint64(data[1:9])),
			Probes: int(int8(data[9])),
		}
		if data[0]&2 != 0 {
			res.PFN = 0
		}
		out = append(out, res)
	}
	return out
}

// FuzzLookupReply holds the appended lookup body to json.Marshal of
// the struct it replaced, byte for byte, over arbitrary results.
func FuzzLookupReply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 42, 0, 0, 0, 0, 0, 0, 0, 1})                                                // a hit
	f.Add([]byte{0, 42, 0, 0, 0, 0, 0, 0, 0, 2})                                                // a miss whose frame field is set
	f.Add([]byte{3, 42, 0, 0, 0, 0, 0, 0, 0, 1})                                                // a hit on frame 0
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255, 0x80})                              // largest frame, negative probes
	f.Add(bytes.Repeat([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4}, 32)) // 64 results
	f.Fuzz(func(t *testing.T, data []byte) {
		out := resultsFrom(data)
		want, err := oracleLookupReply(out)
		if err != nil {
			t.Fatal(err)
		}
		// Appending after stale bytes must not disturb them or the body.
		got := appendLookupReply([]byte("stale"), out)
		if !bytes.Equal(got[len("stale"):], want) || string(got[:len("stale")]) != "stale" {
			t.Fatalf("appendLookupReply(%v) =\n%s\njson.Marshal gives\n%s", out, got, want)
		}
	})
}

// FuzzParseBody: any POST body either is a 400 or yields 1 to
// maxBatchKeys keys with a frame each; nothing panics.
func FuzzParseBody(f *testing.F) {
	for _, seed := range []string{
		"", "{}", "null", "[]", `{"keys":[]}`, `{"keys":null}`, `{"keys":[{"pid":1,"vpn":2}]}`,
		`{"keys":[{"pid":1,"vpn":2,"pfn":0},{"pid":4294967295,"vpn":18446744073709551615,"pfn":null}]}`,
		`{"keys":[{"pid":4294967296,"vpn":2}]}`, `{"keys":[{"pid":-1,"vpn":2}]}`, `{"keys":[{"pid":1.5,"vpn":2}]}`,
		`{"keys":[{"pid":1,`, `{"keyz":[{"pid":1,"vpn":2}]}`, `{"keys":[{"pid":1,"vpn":2}]} trailing`,
		`{"keys":[{"PID":1,"VPN":2}]}`, `{"keys":[[]]}`, `{"keys":{}}`,
		`{"keys":[` + strings.Repeat(`{"pid":1,"vpn":2},`, maxBatchKeys) + `{"pid":1,"vpn":2}]}`,
		`{"keys":[` + strings.Repeat(`{},`, maxBatchKeys-1) + `{}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := &xlateScratch{keys: make([]xlate.Key, 5), pfns: make([]units.PFN, 2)}
		err := sc.parseBody(httptest.NewRequest(http.MethodPost, "/api/xlate/lookup", bytes.NewReader(body)))
		if err != nil {
			return
		}
		if n := len(sc.keys); n == 0 || n > maxBatchKeys || len(sc.pfns) != n {
			t.Fatalf("parseBody accepted %d keys with %d pfns (limit %d)", n, len(sc.pfns), maxBatchKeys)
		}
	})
}

// nopWriter is a ResponseWriter that keeps nothing, so an allocation
// count over it is the handler's own.
type nopWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nopWriter) Header() http.Header  { return w.h }
func (w *nopWriter) WriteHeader(code int) { w.code = code }
func (w *nopWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestXlateLookupHandlerAllocBudget holds the gain: a 64-key GET
// through the route table costs 2 allocations — the Content-Length
// value slice and its digits; Content-Type is a shared slice — and
// none per key; the budget leaves one for a request the live telemetry
// samples. The encoding/json + url.Query handler this replaced made 76.
func TestXlateLookupHandlerAllocBudget(t *testing.T) {
	srv := New()
	keys := vpnList(1, 0, 64, nil)
	h := srv.Handler()
	w := &nopWriter{h: make(http.Header)}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/xlate/insert?keys="+keys, nil))
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("insert: status %d", w.code)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/xlate/lookup?keys="+keys, nil)
	w.n = 0
	h.ServeHTTP(w, req) // sizes the pooled scratch
	if w.n < 64*len(`{"hit":true,"pfn":1,"probes":1}`) || w.h.Get("Content-Length") != strconv.Itoa(w.n) {
		t.Fatalf("lookup wrote %d bytes under Content-Length %q", w.n, w.h.Get("Content-Length"))
	}
	const budget = 3
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > budget {
		t.Errorf("64-key lookup: %.0f allocs per request, budget %d", got, budget)
	}
}

// TestXlateCodecConcurrentShadow hammers lookup, insert and both
// invalidate forms from 8 goroutines and checks every reply against a
// shadow map, once through the handler in process and once over
// loopback TCP from keep-alive clients. Each goroutine owns a pid and a
// vpn range no other touches, in a geometry where no two keys of the
// test share a set, so its replies are a pure function of its own
// history: a pooled scratch that leaked between requests — keys,
// frames, results or reply bytes of another goroutine — shows up as a
// wrong reply here, and as a data race under -race.
func TestXlateCodecConcurrentShadow(t *testing.T) {
	for _, arm := range []string{"handler", "loopback"} {
		t.Run(arm, func(t *testing.T) { codecShadow(t, arm == "loopback") })
	}
}

func codecShadow(t *testing.T, loopback bool) {
	const (
		workers = 8
		span    = 256 // vpns per worker; workers*span = the sets per shard
		rounds  = 150
	)
	xl, err := xlate.New(xlate.Config{Shards: 4, Entries: 4 * workers * span, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(xl).Handler()
	get := func(path string) (int, http.Header, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Header(), rec.Body.Bytes(), nil
	}
	if loopback {
		ts := httptest.NewServer(h)
		defer ts.Close()
		client := ts.Client()
		get = func(path string) (int, http.Header, []byte, error) {
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				return 0, nil, nil, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			return resp.StatusCode, resp.Header, body, err
		}
	}
	call := func(path string, into any) error {
		code, header, body, err := get(path)
		if err != nil {
			return fmt.Errorf("GET %.80s: %w", path, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("GET %.80s: status %d: %.100s", path, code, body)
		}
		if cl := header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			return fmt.Errorf("GET %.80s: Content-Length %q on a %d-byte body", path, cl, len(body))
		}
		return json.Unmarshal(body, into)
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			pid := g + 1
			shadow := map[int]units.PFN{}
			pick := func() []int {
				vpns := make([]int, 1+rng.Intn(48))
				for i := range vpns {
					vpns[i] = g*span + rng.Intn(span)
				}
				return vpns
			}
			for round := 0; round < rounds; round++ {
				vpns := pick()
				var sb strings.Builder
				switch op := rng.Intn(10); {
				case op < 3: // insert, every other key with its frame spelled out
					for i, vpn := range vpns {
						k := xlate.Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)}
						pfn := xlate.SyntheticPFN(k)
						fmt.Fprintf(&sb, ",%d:%d", pid, vpn)
						if i%2 == 1 {
							pfn = units.PFN(rng.Intn(3)) * units.PFN(vpn) // 0 a third of the time
							fmt.Fprintf(&sb, ":%d", pfn)
						}
						shadow[vpn] = pfn
					}
					var reply map[string]int
					if err := call("/api/xlate/insert?keys="+sb.String()[1:], &reply); err != nil {
						t.Error(err)
						return
					}
					if reply["inserted"] != len(vpns) || reply["evictions"] != 0 {
						t.Errorf("worker %d: insert of %d keys replied %v", g, len(vpns), reply)
						return
					}
				case op < 8: // lookup
					for _, vpn := range vpns {
						fmt.Fprintf(&sb, ",%d:%d", pid, vpn)
					}
					var reply xlateLookupResponse
					if err := call("/api/xlate/lookup?keys="+sb.String()[1:], &reply); err != nil {
						t.Error(err)
						return
					}
					if int(reply.Lookups) != len(vpns) || len(reply.Results) != len(vpns) {
						t.Errorf("worker %d: lookup of %d keys replied %d lookups, %d results", g, len(vpns), reply.Lookups, len(reply.Results))
						return
					}
					hits := 0
					for i, vpn := range vpns {
						pfn, resident := shadow[vpn]
						if resident {
							hits++
						}
						if res := reply.Results[i]; res.Hit != resident || res.PFN != pfn {
							t.Errorf("worker %d: lookup %d:%d = %+v, shadow has (%v, %d)", g, pid, vpn, res, resident, pfn)
							return
						}
					}
					if int(reply.Hits) != hits {
						t.Errorf("worker %d: lookup replied %d hits, shadow counts %d", g, reply.Hits, hits)
						return
					}
				case op < 9: // invalidate, keys form
					want := 0
					for _, vpn := range vpns {
						fmt.Fprintf(&sb, ",%d:%d", pid, vpn)
						if _, resident := shadow[vpn]; resident {
							want++
							delete(shadow, vpn)
						}
					}
					var reply map[string]int
					if err := call("/api/xlate/invalidate?keys="+sb.String()[1:], &reply); err != nil {
						t.Error(err)
						return
					}
					if reply["dropped"] != want {
						t.Errorf("worker %d: invalidate dropped %d, shadow says %d", g, reply["dropped"], want)
						return
					}
				default: // invalidate, process form
					var reply map[string]int
					if err := call("/api/xlate/invalidate?pid="+strconv.Itoa(pid), &reply); err != nil {
						t.Error(err)
						return
					}
					if reply["dropped"] != len(shadow) {
						t.Errorf("worker %d: process invalidate dropped %d, shadow holds %d", g, reply["dropped"], len(shadow))
						return
					}
					clear(shadow)
				}
			}
		}(g)
	}
	wg.Wait()
}
