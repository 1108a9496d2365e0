// Command utlbload is a closed-loop load generator for the live
// translation service behind `utlbsim serve`. K concurrent clients
// issue batched lookups against /api/xlate/lookup over a shared key
// universe, after priming the service through /api/xlate/insert; the
// run reports sustained lookups/sec and request-latency quantiles
// (log2-bucket digests, merged across clients) per client count.
//
// Usage:
//
//	utlbsim serve -addr :8080 &
//	go run ./cmd/utlbload -addr http://localhost:8080 -clients 1,8 \
//	    -ops 200000 -shape zipf -footprint 4096 -json BENCH_load.json
//
// Shapes: uniform, zipf (skewed reuse, -skew), seq (cyclic sweep), or
// app:<name> to replay a SPLASH-2 pattern class from the workload
// package (app:fft, app:barnes, ...). All shapes are deterministic in
// -seed; pages map onto keys as pid = 1 + page mod -pids, vpn = page,
// so translations are verifiable via xlate's synthetic frames.
//
// The emitted JSON (-json) is the BENCH_load.json format: one run
// entry per client count, with enough context (shape, footprint,
// batch, GOMAXPROCS) to compare like against like.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"utlb/internal/obs/analyze"
	"utlb/internal/workload"
)

// Doc is the BENCH_load.json document: one load-generation session.
type Doc struct {
	Addr       string `json:"addr"`
	Shape      string `json:"shape"`
	Footprint  int    `json:"footprint_pages"`
	PIDs       int    `json:"pids"`
	Batch      int    `json:"batch"`
	Ops        int    `json:"ops"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Note       string `json:"note,omitempty"`
	Runs       []Run  `json:"runs"`
}

// Run is one client-count measurement.
type Run struct {
	Clients       int     `json:"clients"`
	Lookups       int64   `json:"lookups"`
	Hits          int64   `json:"hits"`
	Requests      int64   `json:"requests"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	LatencyP50Ns  int64   `json:"latency_p50_ns"`
	LatencyP90Ns  int64   `json:"latency_p90_ns"`
	LatencyP99Ns  int64   `json:"latency_p99_ns"`
	LatencyMaxNs  int64   `json:"latency_max_ns"`
	LatencyMeanNs int64   `json:"latency_mean_ns"`
	// SLO is the server's own /api/live/slo report scraped right after
	// the run: the service-side view of the same traffic (per-shard
	// segment latency against the configured objective). Absent when
	// the server runs without live telemetry.
	SLO *SLO `json:"slo,omitempty"`
}

// SLO mirrors the serve /api/live/slo payload (field names are the
// wire contract).
type SLO struct {
	TargetP99Ns int64   `json:"target_p99_ns"`
	ErrorBudget float64 `json:"error_budget"`
	Ops         int64   `json:"ops"`
	Slow        int64   `json:"slow"`
	P99Ns       int64   `json:"p99_ns"`
	BudgetUsed  float64 `json:"budget_used"`
	BurnRate    float64 `json:"burn_rate"`
	Compliant   bool    `json:"compliant"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(argv []string, out io.Writer) int {
	fs := flag.NewFlagSet("utlbload", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the utlbsim serve instance")
	clientsFlag := fs.String("clients", "1,8", "comma-separated client counts to sweep")
	ops := fs.Int("ops", 50000, "lookups per run (split across clients)")
	batch := fs.Int("batch", 64, "keys per lookup request")
	shape := fs.String("shape", "zipf", "access shape: uniform, zipf, seq, or app:<name>")
	footprint := fs.Int("footprint", 4096, "distinct pages in the key universe")
	pids := fs.Int("pids", 4, "process count the pages are striped across")
	seed := fs.Int64("seed", 1998, "seed for the access sequence")
	skew := fs.Float64("skew", 1.3, "zipf skew (>1; zipf shape only)")
	jsonPath := fs.String("json", "", "write the BENCH_load.json document here ('-' for stdout)")
	note := fs.String("note", "", "free-form note recorded in the document")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	clients, err := parseClients(*clientsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "utlbload:", err)
		return 2
	}
	pages, err := pageSequence(*shape, *seed, *footprint, *ops, *skew)
	if err != nil {
		fmt.Fprintln(os.Stderr, "utlbload:", err)
		return 2
	}
	gen := &generator{
		base:   strings.TrimSuffix(*addr, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
		pids:   *pids,
		batch:  *batch,
		pages:  pages,
	}
	if err := gen.prime(*footprint); err != nil {
		fmt.Fprintln(os.Stderr, "utlbload: priming failed:", err)
		return 1
	}

	doc := Doc{
		Addr: *addr, Shape: *shape, Footprint: *footprint, PIDs: *pids,
		Batch: *batch, Ops: len(pages), Seed: *seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Note: *note,
	}
	for _, k := range clients {
		r, err := gen.measure(k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "utlbload:", err)
			return 1
		}
		r.SLO, err = gen.scrapeSLO()
		if err != nil {
			fmt.Fprintln(os.Stderr, "utlbload: SLO scrape failed:", err)
			return 1
		}
		doc.Runs = append(doc.Runs, r)
		sloNote := "slo=off"
		if r.SLO != nil {
			sloNote = fmt.Sprintf("slo_p99=%s budget=%.2f ok=%v",
				time.Duration(r.SLO.P99Ns), r.SLO.BudgetUsed, r.SLO.Compliant)
		}
		fmt.Fprintf(out, "clients=%-3d lookups=%d hits=%d %10.0f lookups/sec  p50=%s p99=%s max=%s  %s\n",
			r.Clients, r.Lookups, r.Hits, r.LookupsPerSec,
			time.Duration(r.LatencyP50Ns), time.Duration(r.LatencyP99Ns), time.Duration(r.LatencyMaxNs),
			sloNote)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "utlbload:", err)
			return 1
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			out.Write(data)
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "utlbload:", err)
			return 1
		}
	}
	return 0
}

func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 || k > 256 {
			return nil, fmt.Errorf("bad client count %q (want 1..256)", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts")
	}
	return out, nil
}

// pageSequence materialises the access shape as page indices.
func pageSequence(shape string, seed int64, footprint, ops int, skew float64) ([]int, error) {
	switch {
	case shape == "uniform":
		return workload.UniformPages(seed, footprint, ops), nil
	case shape == "zipf":
		return workload.ZipfPages(seed, footprint, ops, skew), nil
	case shape == "seq":
		return workload.SequentialPages(footprint, ops), nil
	case strings.HasPrefix(shape, "app:"):
		spec, err := workload.ByName(strings.TrimPrefix(shape, "app:"))
		if err != nil {
			return nil, err
		}
		return spec.PageSequence(seed, footprint, ops), nil
	default:
		return nil, fmt.Errorf("unknown shape %q (want uniform, zipf, seq, or app:<name>)", shape)
	}
}

// generator drives one serve instance.
type generator struct {
	base   string
	client *http.Client
	pids   int
	batch  int
	pages  []int
}

// key renders page p as the pid:vpn wire key. Pages stripe across the
// pid space so every shard sees traffic.
func (g *generator) key(p int) string {
	return strconv.Itoa(1+p%g.pids) + ":" + strconv.Itoa(p)
}

// prime installs the whole key universe so measurement runs are
// eviction-free cache hits (the server fills frames synthetically).
func (g *generator) prime(footprint int) error {
	for lo := 0; lo < footprint; lo += g.batch {
		hi := lo + g.batch
		if hi > footprint {
			hi = footprint
		}
		keys := make([]string, 0, hi-lo)
		for p := lo; p < hi; p++ {
			keys = append(keys, g.key(p))
		}
		var resp struct {
			Inserted int `json:"inserted"`
		}
		if err := g.get("/api/xlate/insert?keys="+strings.Join(keys, ","), &resp); err != nil {
			return err
		}
		if resp.Inserted != hi-lo {
			return fmt.Errorf("inserted %d of %d keys", resp.Inserted, hi-lo)
		}
	}
	return nil
}

// measure runs the full op sequence split across k clients and
// reports sustained throughput plus merged latency quantiles.
func (g *generator) measure(k int) (Run, error) {
	type part struct {
		lookups, hits, requests int64
		digest                  analyze.Digest
		err                     error
	}
	parts := make([]part, k)
	chunk := (len(g.pages) + k - 1) / k

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < k; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(g.pages) {
			hi = len(g.pages)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := &parts[w]
			for i := lo; i < hi; i += g.batch {
				end := i + g.batch
				if end > hi {
					end = hi
				}
				keys := make([]string, 0, end-i)
				for _, page := range g.pages[i:end] {
					keys = append(keys, g.key(page))
				}
				var resp struct {
					Lookups int64 `json:"lookups"`
					Hits    int64 `json:"hits"`
				}
				t0 := time.Now()
				if err := g.get("/api/xlate/lookup?keys="+strings.Join(keys, ","), &resp); err != nil {
					p.err = err
					return
				}
				p.digest.Add(time.Since(t0).Nanoseconds())
				p.lookups += resp.Lookups
				p.hits += resp.Hits
				p.requests++
			}
		}(w, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := Run{Clients: k, ElapsedNs: elapsed.Nanoseconds()}
	var merged analyze.Digest
	for w := range parts {
		if parts[w].err != nil {
			return r, fmt.Errorf("client %d: %w", w, parts[w].err)
		}
		r.Lookups += parts[w].lookups
		r.Hits += parts[w].hits
		r.Requests += parts[w].requests
		merged.Merge(&parts[w].digest)
	}
	if elapsed > 0 {
		r.LookupsPerSec = float64(r.Lookups) / elapsed.Seconds()
	}
	r.LatencyP50Ns = merged.Quantile(50)
	r.LatencyP90Ns = merged.Quantile(90)
	r.LatencyP99Ns = merged.Quantile(99)
	r.LatencyMaxNs = merged.Max()
	if merged.N() > 0 {
		r.LatencyMeanNs = merged.Sum() / merged.N()
	}
	return r, nil
}

// scrapeSLO reads the server's live SLO report. A 503 means the
// server runs without telemetry — not an error, just no SLO section.
func (g *generator) scrapeSLO() (*SLO, error) {
	resp, err := g.client.Get(g.base + "/api/live/slo")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/live/slo: status %d: %.200s", resp.StatusCode, body)
	}
	var s SLO
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// get issues one GET and decodes the JSON response into v.
func (g *generator) get(path string, v any) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
