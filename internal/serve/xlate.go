package serve

// The /api/xlate/* endpoints expose the sharded translation service
// as live traffic endpoints. They are deliberately independent of the
// experiment machinery: handlers touch only the xlate.Service (its
// own per-shard locks), so translation traffic flows at full rate
// while experiments execute.
//
// Key syntax: a single key is ?pid=1&vpn=42; batches are
// ?keys=pid:vpn[,pid:vpn...]. Inserts accept pid:vpn:pfn triples; a
// pair gets the deterministic xlate.SyntheticPFN frame so load
// generators can verify translations end-to-end without shipping
// frame numbers.
//
// The wire codec: a translation costs a few nanoseconds a key, so the
// request around it must not cost microseconds a key. lookup, insert
// and invalidate decode into and encode out of one pooled scratch:
// the query string is read where it lies (queryParam, scanKeys — no
// url.Values, no strings.Split, no string per key), LookupMany fills
// the scratch's result slice, and the reply is appended into the
// scratch's buffer as compact JSON (json.Marshal's bytes: no
// whitespace, which the client would pay to scan) and sent with one
// Write under an explicit Content-Length. The cold endpoints (stats,
// /api/live/*, /api/runs) stay on writeJSON.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"utlb/internal/units"
	"utlb/internal/xlate"
)

// maxBatchKeys bounds one request's batch so a single call cannot
// hold shard locks for unbounded work.
const maxBatchKeys = 4096

// maxBodyBytes bounds a POST body: maxBatchKeys keys at a generous
// ~64 bytes of JSON each.
const maxBodyBytes = maxBatchKeys * 64

// xlateScratch is what one translation request decodes into and
// encodes out of. A handler takes it from scratchPool, and returns it
// once the reply is written: nothing in it may be referenced after
// that (the service copies keys and frames into its shards, and Write
// copies buf). maxBatchKeys bounds how large a pooled scratch grows.
type xlateScratch struct {
	keys []xlate.Key
	pfns []units.PFN // explicit or synthetic frame of keys[i], for inserts
	out  []xlate.Result
	buf  []byte
}

var scratchPool = sync.Pool{New: func() any { return new(xlateScratch) }}

// queryParam returns what url.ParseQuery(rawQuery).Get(name) would —
// the first well-formed pair named name; a pair with a semicolon or a
// bad escape is skipped — without building the map. The value is a
// substring of rawQuery unless it carries an escape.
func queryParam(rawQuery, name string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key != name {
			// An escaped spelling of name: rare enough to pay for.
			if !strings.ContainsAny(key, "%+") {
				continue
			}
			if k, err := url.QueryUnescape(key); err != nil || k != name {
				continue
			}
		}
		if strings.ContainsAny(value, "%+") {
			v, err := url.QueryUnescape(value)
			if err != nil {
				continue
			}
			value = v
		}
		return value
	}
	return ""
}

// keyBody is one key in a POST body.
type keyBody struct {
	PID uint32  `json:"pid"`
	VPN uint64  `json:"vpn"`
	PFN *uint64 `json:"pfn"` // nil → SyntheticPFN
}

// batchBody is the POST request body for lookup and insert.
type batchBody struct {
	Keys []keyBody `json:"keys"`
}

// parseBody reads a POST JSON batch. Errors are client errors (400):
// malformed JSON, unknown fields, an empty batch, or one beyond
// maxBatchKeys. The decode stays on encoding/json: no workload
// measures it, and its error texts are part of the wire format.
func (sc *xlateScratch) parseBody(r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var body batchBody
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("bad JSON body: %v", err)
	}
	if len(body.Keys) == 0 {
		return fmt.Errorf("empty batch (want keys: [{pid, vpn[, pfn]}, ...])")
	}
	if len(body.Keys) > maxBatchKeys {
		return fmt.Errorf("batch of %d keys exceeds limit %d", len(body.Keys), maxBatchKeys)
	}
	sc.keys, sc.pfns = sc.keys[:0], sc.pfns[:0]
	for _, kb := range body.Keys {
		k := xlate.Key{PID: units.ProcID(kb.PID), VPN: units.VPN(kb.VPN)}
		pfn := xlate.SyntheticPFN(k)
		if kb.PFN != nil {
			pfn = units.PFN(*kb.PFN)
		}
		sc.keys, sc.pfns = append(sc.keys, k), append(sc.pfns, pfn)
	}
	return nil
}

// parseRequest reads the request's batch from the POST body or the
// query string.
func (sc *xlateScratch) parseRequest(r *http.Request) error {
	if r.Method == http.MethodPost {
		return sc.parseBody(r)
	}
	return sc.parseQuery(r.URL.RawQuery)
}

// scanKey reads one pid:vpn[:pfn] triple. withPFN reports whether an
// explicit frame was present.
func scanKey(s string) (k xlate.Key, pfn units.PFN, withPFN bool, err error) {
	pidStr, rest, ok := strings.Cut(s, ":")
	vpnStr, pfnStr, withPFN := strings.Cut(rest, ":")
	if !ok || strings.IndexByte(pfnStr, ':') >= 0 {
		return k, 0, false, fmt.Errorf("bad key %q (want pid:vpn or pid:vpn:pfn)", s)
	}
	pid, err := strconv.ParseUint(pidStr, 10, 32)
	if err != nil {
		return k, 0, false, fmt.Errorf("bad pid in key %q", s)
	}
	vpn, err := strconv.ParseUint(vpnStr, 10, 64)
	if err != nil {
		return k, 0, false, fmt.Errorf("bad vpn in key %q", s)
	}
	k = xlate.Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)}
	if !withPFN {
		return k, 0, false, nil
	}
	raw, err := strconv.ParseUint(pfnStr, 10, 64)
	if err != nil {
		return k, 0, false, fmt.Errorf("bad pfn in key %q", s)
	}
	return k, units.PFN(raw), true, nil
}

// scanKeys reads a keys= list into sc.keys and sc.pfns in one pass.
// The batch limit is checked first, on the comma count, so an
// oversized list is rejected before any of it is parsed.
func (sc *xlateScratch) scanKeys(list string) error {
	if n := strings.Count(list, ",") + 1; n > maxBatchKeys {
		return fmt.Errorf("batch of %d keys exceeds limit %d", n, maxBatchKeys)
	}
	sc.keys, sc.pfns = sc.keys[:0], sc.pfns[:0]
	for more := true; more; {
		var part string
		part, list, more = strings.Cut(list, ",")
		k, pfn, withPFN, err := scanKey(part)
		if err != nil {
			return err
		}
		if !withPFN {
			pfn = xlate.SyntheticPFN(k)
		}
		sc.keys, sc.pfns = append(sc.keys, k), append(sc.pfns, pfn)
	}
	return nil
}

// parseQuery reads the request's key set: either the batched keys=
// parameter or the single pid=/vpn= pair. sc.pfns[i] carries the
// explicit or synthetic frame for inserts.
func (sc *xlateScratch) parseQuery(rawQuery string) error {
	if list := queryParam(rawQuery, "keys"); list != "" {
		return sc.scanKeys(list)
	}
	pidStr, vpnStr := queryParam(rawQuery, "pid"), queryParam(rawQuery, "vpn")
	if pidStr == "" || vpnStr == "" {
		return fmt.Errorf("need keys= or pid= and vpn=")
	}
	pid, err := strconv.ParseUint(pidStr, 10, 32)
	if err != nil {
		return fmt.Errorf("bad pid %q", pidStr)
	}
	vpn, err := strconv.ParseUint(vpnStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad vpn %q", vpnStr)
	}
	k := xlate.Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)}
	pfn := xlate.SyntheticPFN(k)
	if v := queryParam(rawQuery, "pfn"); v != "" {
		raw, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad pfn %q", v)
		}
		pfn = units.PFN(raw)
	}
	sc.keys, sc.pfns = append(sc.keys[:0], k), append(sc.pfns[:0], pfn)
	return nil
}

// appendLookupReply appends the /api/xlate/lookup body for out:
// lookups and hits, aggregated so high-rate clients can skip the
// results, then one {hit, pfn, probes} per key. The bytes are those of
// json.Marshal plus a newline over the struct this replaced, whose pfn
// was omitempty: absent on a miss and on a hit whose frame is 0.
func appendLookupReply(b []byte, out []xlate.Result) []byte {
	hits := 0
	for i := range out {
		if out[i].Hit {
			hits++
		}
	}
	b = append(b, `{"lookups":`...)
	b = strconv.AppendInt(b, int64(len(out)), 10)
	b = append(b, `,"hits":`...)
	b = strconv.AppendInt(b, int64(hits), 10)
	b = append(b, `,"results":[`...)
	for i := range out {
		res := &out[i]
		if i > 0 {
			b = append(b, ',')
		}
		if res.Hit {
			b = append(b, `{"hit":true`...)
			if res.PFN != 0 {
				b = append(b, `,"pfn":`...)
				b = strconv.AppendUint(b, uint64(res.PFN), 10)
			}
		} else {
			b = append(b, `{"hit":false`...)
		}
		b = append(b, `,"probes":`...)
		b = strconv.AppendInt(b, int64(res.Probes), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendCount appends one integer member of a flat JSON object. open
// is '{' for the first member and ',' for the rest; the caller closes
// the object with "}\n" and names the members in the sorted order json
// gave the map[string]int these replies were.
func appendCount(b []byte, open byte, name string, v int) []byte {
	b = append(b, open, '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

// jsonContentType is every codec reply's Content-Type value, shared
// read-only: Header.Set and Header.Add replace a key's slice and never
// write into it, so storing this one saves the handler an allocation.
var jsonContentType = []string{"application/json"}

// writeReply sends a JSON body built in a scratch buffer. The length
// is declared so net/http writes the reply as it stands: without it a
// body past the server's 2 KB sniff-and-buffer limit (a 64-key lookup
// is 3 KB) goes out chunk-encoded, which both ends pay to frame.
func writeReply(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (s *Server) handleXlateLookup(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*xlateScratch)
	defer scratchPool.Put(sc)
	if err := sc.parseRequest(r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sc.out = s.xl.LookupMany(sc.keys, sc.out)
	sc.buf = appendLookupReply(sc.buf[:0], sc.out)
	writeReply(w, sc.buf)
}

func (s *Server) handleXlateInsert(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*xlateScratch)
	defer scratchPool.Put(sc)
	if err := sc.parseRequest(r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	evictions := s.xl.InsertMany(sc.keys, sc.pfns)
	sc.buf = appendCount(sc.buf[:0], '{', "evictions", evictions)
	sc.buf = appendCount(sc.buf, ',', "inserted", len(sc.keys))
	sc.buf = append(sc.buf, "}\n"...)
	writeReply(w, sc.buf)
}

func (s *Server) handleXlateInvalidate(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*xlateScratch)
	defer scratchPool.Put(sc)
	q := r.URL.RawQuery
	dropped := 0
	// pid without vpn (and no keys=) is a process-wide invalidation.
	if pidStr := queryParam(q, "pid"); pidStr != "" && queryParam(q, "vpn") == "" && queryParam(q, "keys") == "" {
		pid, err := strconv.ParseUint(pidStr, 10, 32)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad pid %q", pidStr), http.StatusBadRequest)
			return
		}
		dropped = s.xl.InvalidateProcess(units.ProcID(pid))
	} else {
		if err := sc.parseQuery(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, k := range sc.keys {
			if s.xl.Invalidate(k) {
				dropped++
			}
		}
	}
	sc.buf = appendCount(sc.buf[:0], '{', "dropped", dropped)
	sc.buf = append(sc.buf, "}\n"...)
	writeReply(w, sc.buf)
}

func (s *Server) handleXlateStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.xl.Stats())
}
