// Package serve is the live observability server behind `utlbsim
// serve`: experiments run on demand from query parameters and their
// timelines are exposed as Prometheus metrics, Chrome traces, and
// transfer-level analyze reports, next to the process' own pprof
// endpoints.
//
//	GET /                      HTML index
//	GET /metrics               Prometheus metrics (all cached runs, or one ?exp=)
//	GET /api/runs              cached experiment results (JSON)
//	GET /api/runs/{slug}/trace Chrome trace download for one cached result
//	GET /api/analyze           transfer-level analysis (JSON; ?exp=&topk=)
//	GET /api/xlate/lookup      live translation service: lookup (single or batched)
//	GET /api/xlate/insert      install translations (single or batched)
//	GET /api/xlate/invalidate  drop one translation or a whole process
//	GET /api/xlate/stats       per-shard and total service counters (JSON)
//	GET /api/live/series       rolling-window time series of service load (JSON)
//	GET /api/live/shards       per-shard load/occupancy heatmap (JSON)
//	GET /api/live/slo          latency SLO position: p99, error budget, burn rate (JSON)
//	GET /api/live/trace        sampled request chains as a Chrome trace
//	GET /debug/pprof/          live profiling of the server process
//
// The lookup and insert endpoints also accept POST with a JSON body
// ({"keys":[{"pid":1,"vpn":42,"pfn":7}, ...]}, pfn optional) for
// batches beyond URL length limits.
//
// Query parameters for experiment-running endpoints: exp (required;
// canonical name or t1-t8/f7-f8 alias), scale, seed, apps
// (comma-separated), nodes, parallel.
//
// Concurrency: experiment execution is single-flighted per parameter
// slug (duplicate requests share one run) and serialised globally —
// the worker-pool width is process-global state — with at most
// maxRuns distinct runs admitted at once (past that, 429 with
// Retry-After instead of an unbounded queue); everything else
// runs concurrently: read-only endpoints serve cached results under a
// read lock, and the xlate translation service runs entirely outside
// the experiment path behind its own per-shard locks, so live
// translation traffic is never stalled by an in-flight experiment.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"utlb/internal/experiments"
	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/telemetry"
	"utlb/internal/workload"
	"utlb/internal/xlate"
)

// maxCached bounds the result cache; past it the oldest entry is
// evicted (each result holds a full event timeline).
const maxCached = 8

// maxRuns bounds the distinct experiment runs admitted at once, the one
// running and those waiting for runMu. Past it a request for another
// run is refused with errBusy; a duplicate of a run in flight still
// joins it.
const maxRuns = 4

// errBusy is get's refusal when maxRuns runs are in flight; handlers
// answer it with 429 and Retry-After.
var errBusy = errors.New("too many experiment runs in flight; retry later")

// params identify one experiment execution; equal params hit the
// cache. parallel is part of the key because the pool width is what
// the determinism goldens vary.
type params struct {
	exp      string
	scale    float64
	seed     int64
	apps     []string
	nodes    int
	parallel int
}

// slug is the URL-safe cache key derived from params.
func (p params) slug() string {
	s := fmt.Sprintf("%s-s%g-seed%d-p%d", p.exp, p.scale, p.seed, p.parallel)
	if p.nodes > 0 {
		s += fmt.Sprintf("-n%d", p.nodes)
	}
	if len(p.apps) > 0 {
		s += "-" + strings.Join(p.apps, "+")
	}
	return s
}

// parseParams reads experiment parameters from the query string.
func parseParams(r *http.Request) (params, error) {
	q := r.URL.Query()
	p := params{scale: 0.05, seed: 1998, parallel: 1}
	p.exp = experiments.Canonical(q.Get("exp"))
	if !experiments.Known(p.exp) {
		return p, fmt.Errorf("unknown experiment %q (have %v)", q.Get("exp"), experiments.Names)
	}
	var err error
	if v := q.Get("scale"); v != "" {
		if p.scale, err = strconv.ParseFloat(v, 64); err != nil || p.scale <= 0 || p.scale > 1 {
			return p, fmt.Errorf("bad scale %q (want 0 < scale <= 1)", v)
		}
	}
	if v := q.Get("seed"); v != "" {
		if p.seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return p, fmt.Errorf("bad seed %q", v)
		}
	}
	if v := q.Get("parallel"); v != "" {
		if p.parallel, err = strconv.Atoi(v); err != nil || p.parallel < 0 || p.parallel > 64 {
			return p, fmt.Errorf("bad parallel %q (want 0..64)", v)
		}
	}
	if v := q.Get("nodes"); v != "" {
		if p.nodes, err = strconv.Atoi(v); err != nil || p.nodes < 0 || p.nodes > 64 {
			return p, fmt.Errorf("bad nodes %q (want 0..64)", v)
		}
	}
	if v := q.Get("apps"); v != "" {
		p.apps = strings.Split(v, ",")
		for _, app := range p.apps {
			if _, err := workload.ByName(app); err != nil {
				return p, fmt.Errorf("unknown application %q (have %v)", app, workload.Names())
			}
		}
	}
	// A scale that leaves an application no page per process has no
	// trace; refused here, not on a pool goroutine under the run lock.
	if err := (experiments.Options{Scale: p.scale, Apps: p.apps}).CheckScale(p.exp); err != nil {
		return p, err
	}
	return p, nil
}

// result is one cached experiment execution.
type result struct {
	params params
	runs   []obs.Run
	text   string // the experiment's rendered table/figure output
	events int64
}

// flight is one in-progress experiment execution: the leader fills
// res/err and closes done; duplicate requests for the same slug wait
// on done instead of re-running.
type flight struct {
	done chan struct{}
	res  *result
	err  error
}

// Server runs experiments on demand and serves their timelines, and
// hosts the live xlate translation service.
//
// Locking: runMu serialises experiment executions (the worker-pool
// width is process-global state, so concurrent runs at different
// widths would race). mu is a read-write lock over the result cache
// and the in-flight table only — read-only endpoints take it briefly
// and never wait behind an executing experiment. The xlate service
// has its own per-shard locks and touches neither mutex.
type Server struct {
	runMu sync.Mutex // serialises experiment execution
	// runHook, when non-nil, runs inside the execution critical
	// section (after runMu is taken, before the experiment). Tests use
	// it to hold an experiment in flight while probing other
	// endpoints for independence.
	runHook func()

	mu       sync.RWMutex // guards cache, order, inflight
	cache    map[string]*result
	order    []string // insertion order, for eviction
	inflight map[string]*flight

	xl *xlate.Service
}

// New returns an empty server with the default translation-service
// geometry and live telemetry enabled on the wall clock. Callers who
// need a different sink geometry (or a deterministic clock, as the
// tests do) build the service themselves and use NewWith.
func New() *Server {
	xl, err := xlate.New(xlate.DefaultConfig())
	if err != nil {
		panic(err) // DefaultConfig is static and valid
	}
	if err := AttachDefaultTelemetry(xl); err != nil {
		panic(err) // DefaultConfig geometries always agree
	}
	return NewWith(xl)
}

// NewWith returns an empty server hosting xl as its translation
// service.
func NewWith(xl *xlate.Service) *Server {
	return &Server{
		cache:    make(map[string]*result),
		inflight: make(map[string]*flight),
		xl:       xl,
	}
}

// Xlate returns the hosted translation service.
func (s *Server) Xlate() *xlate.Service { return s.xl }

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/runs/", s.handleTrace)
	mux.HandleFunc("/api/analyze", s.handleAnalyze)
	mux.HandleFunc("/api/xlate/lookup", s.handleXlateLookup)
	mux.HandleFunc("/api/xlate/insert", s.handleXlateInsert)
	mux.HandleFunc("/api/xlate/invalidate", s.handleXlateInvalidate)
	mux.HandleFunc("/api/xlate/stats", s.handleXlateStats)
	mux.HandleFunc("/api/live/series", s.handleLiveSeries)
	mux.HandleFunc("/api/live/shards", s.handleLiveShards)
	mux.HandleFunc("/api/live/slo", s.handleLiveSLO)
	mux.HandleFunc("/api/live/trace", s.handleLiveTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// get returns the cached result for p, running the experiment on a
// cache miss. Executions are single-flighted per slug: the first
// request becomes the leader and runs the experiment (serialised
// globally by runMu because the worker-pool width is process-global);
// duplicates wait for the leader's result. A new leader is refused
// with errBusy once maxRuns are in flight. Cache reads never wait
// behind an execution.
func (s *Server) get(p params) (*result, error) {
	key := p.slug()
	s.mu.RLock()
	r, ok := s.cache[key]
	s.mu.RUnlock()
	if ok {
		return r, nil
	}

	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	if len(s.inflight) >= maxRuns {
		s.mu.Unlock()
		return nil, errBusy
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	f.res, f.err = s.run(p)

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		if len(s.order) >= maxCached {
			delete(s.cache, s.order[0])
			s.order = s.order[1:]
		}
		s.cache[key] = f.res
		s.order = append(s.order, key)
	}
	s.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// run executes the experiment for p under the global execution lock.
func (s *Server) run(p params) (*result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.runHook != nil {
		s.runHook()
	}
	prev := parallel.Workers()
	parallel.SetWorkers(p.parallel)
	defer parallel.SetWorkers(prev)
	workload.ResetTraceStore()
	sim.ResetTraceMemo()
	col := obs.NewCollector()
	opts := experiments.Options{
		Scale: p.scale, Seed: p.seed, Apps: p.apps, Nodes: p.nodes, Obs: col,
	}
	var sb strings.Builder
	// runMu exists precisely to serialise whole experiment runs: it is
	// the one-at-a-time admission lock, never taken on a request fast
	// path (get() runs under mu/single-flight, not runMu), so holding
	// it across the blocking worker-pool run is its entire contract.
	if err := experiments.Run(p.exp, opts, &sb); err != nil {
		return nil, err
	}
	r := &result{params: p, runs: col.Runs(), text: sb.String()}
	for _, run := range r.runs {
		r.events += int64(run.Len())
	}
	return r, nil
}

// cachedRuns snapshots every cached timeline, in cache-key order.
func (s *Server) cachedRuns() []obs.Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var runs []obs.Run
	for _, key := range s.order {
		runs = append(runs, s.cache[key].runs...)
	}
	return runs
}

const indexHTML = `<!doctype html>
<html><head><title>utlbsim observability</title></head><body>
<h1>utlbsim observability server</h1>
<p>Experiments run on demand; results are cached by parameter set.</p>
<ul>
<li><a href="/metrics">/metrics</a> &mdash; Prometheus metrics over all cached runs (add ?exp= to run one)</li>
<li><a href="/api/runs">/api/runs</a> &mdash; cached results (JSON)</li>
<li>/api/runs/{slug}/trace &mdash; Chrome trace (load in chrome://tracing or Perfetto)</li>
<li><a href="/api/analyze?exp=t6">/api/analyze?exp=t6</a> &mdash; transfer-level latency analysis (JSON)</li>
<li><a href="/api/xlate/stats">/api/xlate/stats</a> &mdash; live translation service per-shard counters (JSON)</li>
<li>/api/xlate/lookup?pid=1&amp;vpn=42 or ?keys=1:42,1:43 &mdash; concurrent translation lookups (batched)</li>
<li>/api/xlate/insert?keys=1:42,1:43 &mdash; install translations (pid:vpn[:pfn] triples)</li>
<li>/api/xlate/invalidate?pid=1&amp;vpn=42 (or just pid= for process exit)</li>
<li><a href="/api/live/series">/api/live/series</a> &mdash; rolling-window time series of live service load</li>
<li><a href="/api/live/shards">/api/live/shards</a> &mdash; per-shard load/occupancy heatmap</li>
<li><a href="/api/live/slo">/api/live/slo</a> &mdash; latency SLO position (p99, error budget, burn rate)</li>
<li><a href="/api/live/trace">/api/live/trace</a> &mdash; sampled live request chains (Chrome trace)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> &mdash; live profiles of this server</li>
</ul>
<p>The xlate endpoints are served by a sharded concurrent translation
service and never wait behind experiment execution.</p>
<p>Parameters: <code>exp</code> (table1..table8, fig7, fig8, or t1..t8/f7/f8),
<code>scale</code>, <code>seed</code>, <code>apps</code>, <code>nodes</code>, <code>parallel</code>,
and <code>topk</code> for /api/analyze.</p>
<p>Example: <a href="/api/analyze?exp=t6&amp;scale=0.05&amp;topk=5">/api/analyze?exp=t6&amp;scale=0.05&amp;topk=5</a></p>
</body></html>
`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// handleMetrics serves Prometheus metrics: with ?exp= it runs (or
// recalls) that experiment; without, it aggregates every cached run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var runs []obs.Run
	if r.URL.Query().Get("exp") != "" {
		p, err := parseParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res := s.getOrFail(w, p)
		if res == nil {
			return
		}
		runs = res.runs
	} else {
		runs = s.cachedRuns()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The live translation service shares the scrape surface: its
	// per-shard counters are appended after the simulation metrics,
	// then the telemetry sink's live metrics and the Go runtime's own
	// health (GC, heap, goroutines) — one scrape tells the whole story.
	stream(w, func(w io.Writer) error {
		if err := obs.WritePrometheus(w, obs.Aggregate(runs)); err != nil {
			return err
		}
		if err := xlate.WritePrometheus(w, s.xl.Stats()); err != nil {
			return err
		}
		if sink := s.xl.Telemetry(); sink != nil {
			if err := sink.WritePrometheus(w, sink.Now()); err != nil {
				return err
			}
		}
		return telemetry.WriteRuntimeMetrics(w)
	})
}

// runInfo is one /api/runs entry.
type runInfo struct {
	Slug     string   `json:"slug"`
	Exp      string   `json:"exp"`
	Scale    float64  `json:"scale"`
	Seed     int64    `json:"seed"`
	Parallel int      `json:"parallel"`
	Runs     []string `json:"runs"`
	Events   int64    `json:"events"`
	TraceURL string   `json:"trace_url"`
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]runInfo, 0, len(s.order))
	for _, key := range s.order {
		res := s.cache[key]
		labels := make([]string, len(res.runs))
		for i, run := range res.runs {
			labels[i] = run.Label
		}
		infos = append(infos, runInfo{
			Slug:     key,
			Exp:      res.params.exp,
			Scale:    res.params.scale,
			Seed:     res.params.seed,
			Parallel: res.params.parallel,
			Runs:     labels,
			Events:   res.events,
			TraceURL: "/api/runs/" + key + "/trace",
		})
	}
	s.mu.RUnlock()
	writeJSON(w, infos)
}

// handleTrace serves the Chrome trace of one cached result:
// /api/runs/{slug}/trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/runs/")
	slug, ok := strings.CutSuffix(rest, "/trace")
	if !ok || slug == "" {
		http.NotFound(w, r)
		return
	}
	s.mu.RLock()
	res := s.cache[slug]
	s.mu.RUnlock()
	if res == nil {
		http.Error(w, fmt.Sprintf("no cached result %q (run it via /api/analyze or /metrics first; see /api/runs)", slug),
			http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.trace.json", slug))
	stream(w, func(w io.Writer) error { return obs.WriteChromeTrace(w, res.runs) })
}

// handleAnalyze serves the transfer-level analysis of one experiment.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	p, err := parseParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	topK := 10
	if v := r.URL.Query().Get("topk"); v != "" {
		if topK, err = strconv.Atoi(v); err != nil || topK < 1 || topK > 1000 {
			http.Error(w, fmt.Sprintf("bad topk %q (want 1..1000)", v), http.StatusBadRequest)
			return
		}
	}
	res := s.getOrFail(w, p)
	if res == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	stream(w, func(w io.Writer) error { return analyze.WriteJSON(w, analyze.Analyze(res.runs, topK)) })
}

// getOrFail is get for a handler: on failure it writes the reply — 429
// with Retry-After when the run was refused, 500 when it failed — and
// returns nil.
func (s *Server) getOrFail(w http.ResponseWriter, p params) *result {
	res, err := s.get(p)
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		return res
	}
	return nil
}

// startedWriter notes whether the body has begun: the first Write
// sends the 200 status line whether or not its bytes get through.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// stream sends a body that write produces piecemeal. A failure before
// the first byte is an ordinary 500. After it the status is gone and
// an error reply would only be appended to a truncated body under a
// 200, so the handler aborts the connection instead (net/http
// recovers ErrAbortHandler quietly) and the client sees the transfer
// fail.
func stream(w http.ResponseWriter, write func(io.Writer) error) {
	sw := &startedWriter{ResponseWriter: w}
	if err := write(sw); err != nil {
		if sw.started {
			panic(http.ErrAbortHandler)
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Write(data)
}
