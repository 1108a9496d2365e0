package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"utlb/internal/serve"
	"utlb/internal/units"
	"utlb/internal/workload"
	"utlb/internal/xlate"
)

// The service workloads' fixed shape: never more than two load
// goroutines or connections (the reference box has two CPUs), batches
// of 64 keys, BENCH_load.json's key universe for the lookup pair.
const (
	clients     = 2
	batchKeys   = 64
	zipfPages   = 4096
	zipfPIDs    = 4
	zipfSkew    = 1.3
	mixedPages  = 1 << 17 // twice the service's 65 536-entry capacity
	invalEvery  = 32      // batches between Invalidate bursts
	invalKeys   = 8
	exitEvery   = 4096 // batches between InvalidateProcess calls
	scratchPID  = 1000
	reqHeader   = "X-Bench-Req"
	spanHeader  = "X-Bench-Span"
	lookupRoute = "/api/xlate/lookup?keys="
)

// runClients runs fn(0..k-1) concurrently and returns when all have.
func runClients(k int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		//lint:ignore goroutine contract: K closed-loop load clients, joined by WaitGroup before the timer stops
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// batch is one lookup request: its keys, the frames a correct service
// answers, and the request URL.
type batch struct {
	keys []xlate.Key
	want []units.PFN
	url  string
}

// zipfKey stripes pages across processes the way cmd/utlbload does, so
// this is BENCH_load.json's traffic.
func zipfKey(page int) xlate.Key {
	return xlate.Key{PID: units.ProcID(1 + page%zipfPIDs), VPN: units.VPN(page)}
}

// zipfPool is client g's key stream cut into batches. base is the
// server URL, empty for in-process callers.
func zipfPool(seed int64, g, batches int, base string) []batch {
	pages := workload.ZipfPages(seed*8+int64(g), zipfPages, batches*batchKeys, zipfSkew)
	pool := make([]batch, batches)
	for i := range pool {
		b := &pool[i]
		b.keys = make([]xlate.Key, batchKeys)
		b.want = make([]units.PFN, batchKeys)
		for j, page := range pages[i*batchKeys : (i+1)*batchKeys] {
			b.keys[j] = zipfKey(page)
			b.want[j] = xlate.SyntheticPFN(b.keys[j])
		}
		if base != "" {
			b.url = base + lookupRoute + keyList(b.keys)
		}
	}
	return pool
}

// keyList spells keys the way /api/xlate/* read them: pid:vpn,pid:vpn.
func keyList(keys []xlate.Key) string {
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(k.PID)))
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(int(k.VPN)))
	}
	return sb.String()
}

// prime installs every key of the zipf universe. pfnOf is
// xlate.SyntheticPFN except in the test that proves the checker
// checks.
func prime(xl *xlate.Service, pfnOf func(xlate.Key) units.PFN) {
	keys := make([]xlate.Key, zipfPages)
	pfns := make([]units.PFN, zipfPages)
	for p := range keys {
		keys[p] = zipfKey(p)
		pfns[p] = pfnOf(keys[p])
	}
	xl.InsertMany(keys, pfns)
}

// loadClient is one closed-loop client's private state.
type loadClient struct {
	checker
	pool    []batch
	next    int
	lat     []int64
	lookups int64
	out     []xlate.Result
	resp    lookupResponse
	// Payload bytes of the HTTP replies seen so far (http.req_bytes,
	// http.resp_bytes).
	replies, reqBytes, respBytes int64
}

func (c *loadClient) nextBatch() *batch {
	b := &c.pool[c.next]
	c.next = (c.next + 1) % len(c.pool)
	return b
}

// svcInst is what the three service workloads share: the service, the
// clients, and the end-of-repetition counter check.
type svcInst struct {
	checker
	name    string
	xl      *xlate.Service
	ops     int // requests per client per repetition
	cl      []*loadClient
	issued  int64 // lookups sent to the service since it was built
	merged  []int64
	stopper func()
}

func (in *svcInst) latencies() []int64        { return in.merged }
func (in *svcInst) paperErr() (float64, bool) { return 0, false }
func (in *svcInst) close() {
	if in.stopper != nil {
		in.stopper()
	}
}

// finishRep folds the clients' counts into the instance and holds the
// service's own counters against what the clients sent.
func (in *svcInst) finishRep() repCounts {
	var c repCounts
	in.merged = in.merged[:0]
	for _, cl := range in.cl {
		c.requests += cl.attempted
		c.failed += cl.failedN
		c.lookups += cl.lookups
		in.merged = append(in.merged, cl.lat...)
		in.attempted += cl.attempted
		in.failedN += cl.failedN
		if in.firstFailure == "" {
			in.firstFailure = cl.firstFailure
		}
		cl.checker = checker{}
		cl.lookups = 0
		cl.lat = cl.lat[:0]
	}
	in.issued += c.lookups
	in.attempted++
	if t := in.xl.Stats().Total; t.Lookups != in.issued || t.Hits+t.Misses != t.Lookups {
		in.fail("%s: service counted %d lookups (%d hits + %d misses), clients sent %d", in.name, t.Lookups, t.Hits, t.Misses, in.issued)
		c.failed++
	}
	return c
}

// checkHits holds one all-hit reply, already in c.out, against the
// batch's frames.
func (c *loadClient) checkHits(b *batch) {
	c.attempted++
	c.lookups += batchKeys
	if len(c.out) != batchKeys {
		c.fail("reply carries %d results, want %d", len(c.out), batchKeys)
		return
	}
	for i, r := range c.out {
		if !r.Hit || r.PFN != b.want[i] {
			c.fail("key %v: hit=%v pfn=%#x, want hit pfn=%#x", b.keys[i], r.Hit, r.PFN, b.want[i])
			return
		}
	}
}

// --- svc_inproc_lookup ---------------------------------------------

func newService() (*xlate.Service, error) {
	xl, err := xlate.New(xlate.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Telemetry attached the way serve.New attaches it.
	if err := serve.AttachDefaultTelemetry(xl); err != nil {
		return nil, err
	}
	return xl, nil
}

type inprocInst struct{ svcInst }

func setupInprocLookup(seed int64, sz sizes, tr *tracer) (instance, error) {
	return newInprocLookup(seed, sz, xlate.SyntheticPFN)
}

func newInprocLookup(seed int64, sz sizes, pfnOf func(xlate.Key) units.PFN) (*inprocInst, error) {
	xl, err := newService()
	if err != nil {
		return nil, err
	}
	prime(xl, pfnOf)
	in := &inprocInst{svcInst{name: "svc_inproc_lookup", xl: xl, ops: sz.inprocBatches}}
	for g := 0; g < clients; g++ {
		in.cl = append(in.cl, &loadClient{
			pool: zipfPool(seed, g, sz.poolBatches, ""),
			lat:  make([]int64, 0, sz.inprocBatches),
		})
	}
	in.pass(min(sz.poolBatches, sz.inprocBatches)) // first verified pass
	in.finishRep()
	return in, nil
}

// pass sends ops batches per client. One clock read per request: in a
// closed loop with no think time a request starts when the previous
// one ended.
func (in *inprocInst) pass(ops int) {
	runClients(clients, func(g int) {
		c := in.cl[g]
		last := time.Now()
		for i := 0; i < ops; i++ {
			b := c.nextBatch()
			c.out = in.xl.LookupMany(b.keys, c.out)
			c.checkHits(b)
			now := time.Now()
			c.lat = append(c.lat, now.Sub(last).Nanoseconds())
			last = now
		}
	})
}

func (in *inprocInst) rep(*tracer) repCounts {
	in.pass(in.ops)
	return in.finishRep()
}

// --- svc_http_lookup ------------------------------------------------

type lookupResponse struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Results []struct {
		Hit bool      `json:"hit"`
		PFN units.PFN `json:"pfn"`
	} `json:"results"`
}

type httpInst struct {
	svcInst
	client *http.Client
	nextID int64
	active int // clients a repetition runs; fewer only in the one-client probe
}

func setupHTTPLookup(seed int64, sz sizes, tr *tracer) (instance, error) {
	return newHTTPLookup(seed, sz, tr, xlate.SyntheticPFN)
}

func newHTTPLookup(seed int64, sz sizes, tr *tracer, pfnOf func(xlate.Key) units.PFN) (*httpInst, error) {
	srv := serve.New()
	handler := srv.Handler()
	if tr != nil {
		handler = spanMiddleware(tr, handler)
	}
	ts := httptest.NewServer(handler)
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	in := &httpInst{
		svcInst: svcInst{name: "svc_http_lookup", xl: srv.Xlate(), ops: sz.httpReqs},
		client:  &http.Client{Transport: transport, Timeout: 30 * time.Second},
		active:  clients,
	}
	in.stopper = func() {
		transport.CloseIdleConnections()
		ts.Close()
	}
	prime(in.xl, pfnOf)
	for g := 0; g < clients; g++ {
		in.cl = append(in.cl, &loadClient{
			pool: zipfPool(seed, g, sz.poolBatches, ts.URL),
			lat:  make([]int64, 0, sz.httpReqs),
		})
	}
	in.pass(min(sz.poolBatches, sz.httpReqs, 256), nil) // first verified pass
	in.finishRep()
	return in, nil
}

// spanMiddleware records the server side of a traced request as a
// child of the client span the request's headers name.
func spanMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = noSpan
		}
		sp := tr.begin("serve.handler", parent, id)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func (in *httpInst) pass(ops int, tr *tracer) {
	base := in.nextID
	in.nextID += int64(in.active * ops)
	runClients(in.active, func(g int) {
		c := in.cl[g]
		for i := 0; i < ops; i++ {
			b := c.nextBatch()
			t0 := time.Now()
			err := in.get(c, b, tr, base+int64(g*ops+i)+1)
			c.lat = append(c.lat, time.Since(t0).Nanoseconds())
			if err == nil && (c.resp.Lookups != batchKeys || c.resp.Hits != batchKeys) {
				err = fmt.Errorf("reply counts %d lookups %d hits, want %d", c.resp.Lookups, c.resp.Hits, batchKeys)
			}
			if err != nil {
				c.attempted++
				c.lookups += batchKeys
				c.fail("%v", err)
				continue
			}
			c.out = c.out[:0]
			for _, r := range c.resp.Results {
				c.out = append(c.out, xlate.Result{Hit: r.Hit, PFN: r.PFN})
			}
			c.checkHits(b)
		}
	})
}

// get sends one lookup and decodes every result into c.resp. The
// client span covers all of it, so its self time is everything that is
// not the handler: transport, net/http on both sides, the client's
// JSON decode.
func (in *httpInst) get(c *loadClient, b *batch, tr *tracer, id int64) error {
	sp := tr.begin("http.client", noSpan, id)
	defer tr.end(sp)
	req, err := http.NewRequest(http.MethodGet, b.url, nil)
	if err != nil {
		return err
	}
	if tr != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET lookup: status %d: %.100s", resp.StatusCode, body)
	}
	c.replies++
	c.reqBytes += int64(len(req.URL.RequestURI()))
	c.respBytes += int64(len(body))
	return json.Unmarshal(body, &c.resp)
}

func (in *httpInst) rep(tr *tracer) repCounts {
	in.pass(in.ops, tr)
	return in.finishRep()
}

// --- svc_inproc_mixed -----------------------------------------------

// mixedClient is one goroutine of the miss→fill flow. Its keys are
// private (its own pid); the shards they land in are shared.
type mixedClient struct {
	loadClient
	pid   units.ProcID
	rng   uint64
	keys  []xlate.Key
	missK []xlate.Key
	missP []units.PFN
	// dropped marks pages this goroutine invalidated and has not
	// re-inserted: a hit on one is a stale translation.
	dropped []uint64
	batchNo int
}

type mixedInst struct {
	svcInst
	mc []*mixedClient
}

func setupInprocMixed(seed int64, sz sizes, tr *tracer) (instance, error) {
	xl, err := newService()
	if err != nil {
		return nil, err
	}
	in := &mixedInst{svcInst: svcInst{name: "svc_inproc_mixed", xl: xl, ops: sz.mixedBatches}}
	for g := 0; g < clients; g++ {
		mc := &mixedClient{
			pid:     units.ProcID(g + 1),
			rng:     uint64(seed)*0x9E3779B97F4A7C15 + uint64(g+1),
			keys:    make([]xlate.Key, batchKeys),
			dropped: make([]uint64, mixedPages/64),
		}
		mc.lat = make([]int64, 0, sz.mixedBatches)
		in.mc = append(in.mc, mc)
		in.cl = append(in.cl, &mc.loadClient)
	}
	// The first verified pass also fills the table to capacity, so
	// timed repetitions see steady-state evictions.
	in.pass(max(sz.mixedBatches/4, min(sz.mixedBatches, 2*mixedPages/batchKeys)))
	in.finishRep()
	return in, nil
}

// splitmix64: the key stream is generated in the loop because a
// recycled pool of uniform draws would turn LRU's worst case (a cyclic
// sweep larger than the table) into the workload.
func (c *mixedClient) draw() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (in *mixedInst) pass(ops int) {
	runClients(clients, func(g int) {
		c := in.mc[g]
		last := time.Now()
		for i := 0; i < ops; i++ {
			c.step(in.xl)
			now := time.Now()
			c.lat = append(c.lat, now.Sub(last).Nanoseconds())
			last = now
		}
	})
}

// step is one request: look 64 keys up, fill the ones that missed,
// and now and then unpin a few or retire a process.
func (c *mixedClient) step(xl *xlate.Service) {
	for i := range c.keys {
		c.keys[i] = xlate.Key{PID: c.pid, VPN: units.VPN(c.draw() % mixedPages)}
	}
	c.out = xl.LookupMany(c.keys, c.out)
	c.attempted++
	c.lookups += batchKeys
	c.missK, c.missP = c.missK[:0], c.missP[:0]
	why := ""
	if len(c.out) != batchKeys {
		why = fmt.Sprintf("reply carries %d results, want %d", len(c.out), batchKeys)
	}
	for i, r := range c.out {
		k := c.keys[i]
		switch {
		case !r.Hit:
			c.missK = append(c.missK, k)
			c.missP = append(c.missP, xlate.SyntheticPFN(k))
		case r.PFN != xlate.SyntheticPFN(k):
			why = fmt.Sprintf("key %v: hit carries frame %#x, want %#x", k, r.PFN, xlate.SyntheticPFN(k))
		case c.dropped[k.VPN/64]&(1<<(k.VPN%64)) != 0:
			why = fmt.Sprintf("key %v: hit after Invalidate with no insert since (stale translation)", k)
		}
	}
	if why != "" {
		c.fail("%s", why)
	}
	xl.InsertMany(c.missK, c.missP)
	for _, k := range c.missK {
		c.dropped[k.VPN/64] &^= 1 << (k.VPN % 64)
	}
	c.batchNo++
	if c.batchNo%invalEvery == 0 {
		for _, k := range c.keys[:invalKeys] {
			xl.Invalidate(k)
			c.dropped[k.VPN/64] |= 1 << (k.VPN % 64)
		}
	}
	if c.batchNo%exitEvery == 0 {
		xl.InvalidateProcess(scratchPID)
	}
}

func (in *mixedInst) rep(*tracer) repCounts {
	in.pass(in.ops)
	return in.finishRep()
}
