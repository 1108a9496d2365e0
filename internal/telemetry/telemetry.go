// Package telemetry is the live observability layer for the sharded
// translation service (internal/xlate): where internal/obs records
// post-hoc event timelines for runs that end, this package answers
// questions about a service that never finishes — which shards are
// hot right now, what the p99 looks like over the last minute, and
// whether the service is inside its latency objective.
//
// Three pieces, all integer math on an injectable clock:
//
//   - Per-shard cumulative counters and fixed-bucket log2 latency
//     histograms (the analyze.Digest bucket scheme), updated lock-free
//     with atomics on every Lookup/LookupMany/Insert. The disabled
//     path — a nil *Sink, whose Request methods all return at once —
//     allocates nothing.
//
//   - A rolling-window time series: a ring of N fixed-width windows.
//     The hot path checks one atomic against the current window
//     number; on a window boundary (rare) the crossing operation folds
//     the cumulative counter deltas into the window that just closed.
//     No background goroutine, no timers — the ring advances on
//     traffic and on reads, so an idle service costs nothing.
//
//   - An SLO tracker (target p99 + error budget) computed over the
//     window ring, plus deterministic 1-in-N sampled request tracing
//     whose chains export through the existing Chrome-trace writer.
//
// Tests inject a ManualClock and assert byte-exact reports; the
// production WallClock adapter in clock.go is the package's single
// sanctioned wall-clock read (held by TestProgramSource).
package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/units"
)

// Config parameterises a Sink.
type Config struct {
	// Shards is the number of service shards tracked; must match the
	// xlate service the sink attaches to.
	Shards int
	// WindowNs is the width of one rolling window in nanoseconds.
	WindowNs int64
	// Windows is the ring length: the series spans Windows*WindowNs.
	Windows int
	// SampleEvery samples one request in N for tracing (0 disables
	// sampling; 1 traces everything). Sampling is deterministic in the
	// request sequence: request ids are a counter, and ids divisible
	// by SampleEvery are traced.
	SampleEvery int64
	// MaxTraces bounds the retained sampled chains (a ring: newest
	// overwrite oldest).
	MaxTraces int
	// SLOTargetNs is the latency objective: the p99 of per-shard
	// operation latency should stay at or below this.
	SLOTargetNs int64
	// SLOBudget is the error budget: the fraction of operations
	// allowed over the target before the budget is spent.
	SLOBudget float64
}

// DefaultConfig is the sink geometry `utlbsim serve` starts with:
// sixty 1-second windows, 1-in-256 request sampling, and a 2 ms p99
// objective with a 1% error budget.
func DefaultConfig(shards int) Config {
	return Config{
		Shards:      shards,
		WindowNs:    1_000_000_000,
		Windows:     60,
		SampleEvery: 256,
		MaxTraces:   64,
		SLOTargetNs: 2_000_000,
		SLOBudget:   0.01,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("telemetry: shard count %d not positive", c.Shards)
	}
	if c.WindowNs <= 0 {
		return fmt.Errorf("telemetry: window width %d ns not positive", c.WindowNs)
	}
	if c.Windows < 2 {
		return fmt.Errorf("telemetry: ring of %d windows too short (want >= 2)", c.Windows)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("telemetry: sample-every %d negative", c.SampleEvery)
	}
	if c.MaxTraces < 0 {
		return fmt.Errorf("telemetry: max traces %d negative", c.MaxTraces)
	}
	if c.SLOTargetNs <= 0 {
		return fmt.Errorf("telemetry: SLO target %d ns not positive", c.SLOTargetNs)
	}
	if c.SLOBudget <= 0 || c.SLOBudget > 1 {
		return fmt.Errorf("telemetry: SLO error budget %g not in (0, 1]", c.SLOBudget)
	}
	return nil
}

// Totals is one counter set: a shard's or the service's cumulative
// counts, or one window's deltas. It is embedded, tags and all, in
// WindowPoint and ShardSnapshot, so the JSON names live here.
type Totals struct {
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Inserts       int64 `json:"inserts"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Ops           int64 `json:"ops"`  // timed shard operations
	Slow          int64 `json:"slow"` // ops over the SLO target
	SumNs         int64 `json:"latency_sum_ns"`
}

// A shard stores the set as an array of atomics indexed by these.
const (
	cLookups = iota
	cHits
	cMisses
	cInserts
	cEvictions
	cInvalidations
	cOps
	cSlow
	cSumNs
	numCounters
)

// counters ties each stored counter to its Totals field and to its
// family on /metrics. Arithmetic on counter sets, the cumulative read
// and the Prometheus export all range over this list, so a new counter
// is a Totals field, an index, a row here and its record site.
var counters = [numCounters]struct {
	field      func(*Totals) *int64
	prom, help string // "" = no family of its own
}{
	cLookups:       {func(t *Totals) *int64 { return &t.Lookups }, "utlb_live_lookups_total", "Keys looked up, by shard."},
	cHits:          {func(t *Totals) *int64 { return &t.Hits }, "utlb_live_hits_total", "Lookup hits, by shard."},
	cMisses:        {func(t *Totals) *int64 { return &t.Misses }, "utlb_live_misses_total", "Lookup misses, by shard."},
	cInserts:       {func(t *Totals) *int64 { return &t.Inserts }, "utlb_live_inserts_total", "Keys inserted, by shard."},
	cEvictions:     {func(t *Totals) *int64 { return &t.Evictions }, "utlb_live_evictions_total", "Insert evictions, by shard."},
	cInvalidations: {func(t *Totals) *int64 { return &t.Invalidations }, "utlb_live_invalidations_total", "Translations invalidated, by shard."},
	cSlow:          {func(t *Totals) *int64 { return &t.Slow }, "utlb_live_slow_ops_total", "Timed shard operations over the SLO target, by shard."},
	// The live histogram's _count and _sum.
	cOps:   {field: func(t *Totals) *int64 { return &t.Ops }},
	cSumNs: {field: func(t *Totals) *int64 { return &t.SumNs }},
}

// sub sets t to a - b, counter by counter.
func (t *Totals) sub(a, b Totals) {
	for _, c := range counters {
		*c.field(t) = *c.field(&a) - *c.field(&b)
	}
}

// shardTel is one shard's lock-free cumulative state: the counter set
// as plain atomics plus a fixed-bucket latency histogram in the
// analyze.Digest bucket scheme. Everything here is written on the
// xlate hot path, so nothing allocates and nothing takes a lock.
type shardTel struct {
	ctr   [numCounters]atomic.Int64
	maxNs atomic.Int64
	hist  [analyze.DigestBuckets]atomic.Int64
}

// addTo adds the shard's cumulative counters to t. Reads race benignly
// with hot-path writers: each counter is individually atomic and only
// ever grows, so the result is a valid set of recent values.
func (s *shardTel) addTo(t *Totals) {
	for i, c := range counters {
		*c.field(t) += s.ctr[i].Load()
	}
}

// observe records one timed shard operation of durNs.
func (s *shardTel) observe(durNs, sloTargetNs int64) {
	if durNs < 0 {
		durNs = 0
	}
	s.ctr[cOps].Add(1)
	s.ctr[cSumNs].Add(durNs)
	s.hist[analyze.BucketIndex(durNs)].Add(1)
	if durNs > sloTargetNs {
		s.ctr[cSlow].Add(1)
	}
	for {
		m := s.maxNs.Load()
		if durNs <= m || s.maxNs.CompareAndSwap(m, durNs) {
			break
		}
	}
}

// window is one closed ring slot: the counter and histogram deltas
// that accrued while the window was current. Guarded by Sink.mu.
type window struct {
	num int64 // window number (start = num*WindowNs); -1 = empty
	Totals
	hist [analyze.DigestBuckets]int64
}

// Sink is the live telemetry collector for one xlate service. The
// zero value is not usable; use New. A nil *Sink is the disabled
// state: Begin and Now are nil-safe, and the Request a nil sink hands
// out does nothing.
type Sink struct {
	cfg    Config
	clock  Clock
	baseNs int64 // clock reading at New; trace timestamps are relative to it

	shards []shardTel
	reqSeq atomic.Int64 // request ids, dense from 1 (drives sampling)
	curWin atomic.Int64 // window number the ring considers current

	mu       sync.Mutex // guards everything below
	ring     []window
	lastWin  int64  // == curWin, under mu (curWin is the lock-free mirror)
	lastTot  Totals // cumulative totals at the last fold
	lastHist [analyze.DigestBuckets]int64
	traces   []traceChain // sampled request chains, a ring
	traceN   int64        // total chains ever retained
}

// traceChain is one retained sampled request: the request span plus
// its per-shard segments, already in obs.Event form.
type traceChain struct {
	id     int64
	events []obs.Event
}

// New returns a sink for cfg reading time from clock (WallClock{} for
// production, a ManualClock in tests).
func New(cfg Config, clock Clock) (*Sink, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("telemetry: nil clock")
	}
	now := clock.Now()
	t := &Sink{
		cfg:    cfg,
		clock:  clock,
		baseNs: now,
		shards: make([]shardTel, cfg.Shards),
		ring:   make([]window, cfg.Windows),
	}
	for i := range t.ring {
		t.ring[i].num = -1
	}
	w := now / cfg.WindowNs
	t.curWin.Store(w)
	t.lastWin = w
	return t, nil
}

// Config returns the sink configuration.
func (t *Sink) Config() Config { return t.cfg }

// Now reads the sink's clock (nil-safe: 0 on a nil sink).
func (t *Sink) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// --- hot path -------------------------------------------------------

// RecordLookups charges one timed lookup segment against shard si:
// n keys, hits of them resident, taking durNs. now is the clock at
// segment end (the caller already holds it; no extra clock read).
func (t *Sink) RecordLookups(si int, n, hits, durNs, now int64) {
	t.maybeFold(now)
	s := &t.shards[si]
	s.ctr[cLookups].Add(n)
	s.ctr[cHits].Add(hits)
	s.ctr[cMisses].Add(n - hits)
	s.observe(durNs, t.cfg.SLOTargetNs)
}

// RecordInserts charges one timed insert segment against shard si.
func (t *Sink) RecordInserts(si int, n, evictions, durNs, now int64) {
	t.maybeFold(now)
	s := &t.shards[si]
	s.ctr[cInserts].Add(n)
	s.ctr[cEvictions].Add(evictions)
	s.observe(durNs, t.cfg.SLOTargetNs)
}

// RecordInvalidations charges n dropped translations against shard
// si. Invalidations are not timed (they are rare and administrative).
func (t *Sink) RecordInvalidations(si int, n, now int64) {
	t.maybeFold(now)
	t.shards[si].ctr[cInvalidations].Add(n)
}

// maybeFold advances the window ring when now has crossed a window
// boundary. Record sites call it BEFORE touching their counters so a
// boundary-crossing operation is attributed to the window it happened
// in, not the one that just closed. The common case — still inside
// the current window — is one atomic load and a compare.
//
// The comparison is >, not !=: a wall clock stepping BACKWARDS past a
// boundary (NTP correction, VM migration) must be treated as
// still-in-the-current-window. With != every record during the
// stepped-back interval would take the fold lock only for foldLocked
// to clamp and return — a mutex storm on the hot path until the clock
// catches back up. Backwards records are attributed to the open
// window; the ring never moves backwards.
func (t *Sink) maybeFold(now int64) {
	if now/t.cfg.WindowNs > t.curWin.Load() {
		t.mu.Lock()
		t.foldLocked(now)
		t.mu.Unlock()
	}
}

// TotalsSnapshot sums the per-shard cumulative counters.
func (t *Sink) TotalsSnapshot() Totals {
	var c Totals
	for i := range t.shards {
		t.shards[i].addTo(&c)
	}
	return c
}

// addOpenHist adds to dst, bucket by bucket, the observations recorded
// since the last fold: every shard's cumulative count less lastHist.
func (t *Sink) addOpenHist(dst *[analyze.DigestBuckets]int64) {
	for i := range dst {
		c := -t.lastHist[i]
		for s := range t.shards {
			c += t.shards[s].hist[i].Load()
		}
		dst[i] += c
	}
}

// foldLocked closes the current window: the cumulative deltas since
// the last fold are attributed to the window that was current, skipped
// windows (idle periods) are zeroed, and the ring advances to now's
// window. Integer math only; allocation-free.
func (t *Sink) foldLocked(now int64) {
	wNow := now / t.cfg.WindowNs
	if wNow <= t.lastWin {
		// Same window, or a wall clock stepping backwards: clamp. A
		// negative window delta must never reach the ring arithmetic
		// below — it would attribute deltas to a window slot that is
		// still live and re-zero slots the series already served.
		return
	}
	cur := t.TotalsSnapshot()
	slot := &t.ring[int(t.lastWin%int64(len(t.ring)))]
	*slot = window{num: t.lastWin}
	slot.Totals.sub(cur, t.lastTot)
	t.addOpenHist(&slot.hist)
	for i, c := range slot.hist {
		t.lastHist[i] += c
	}
	t.lastTot = cur
	// Windows nobody recorded into are explicitly zeroed so the series
	// shows idle time instead of stale data.
	for w := t.lastWin + 1; w < wNow && w-t.lastWin <= int64(len(t.ring)); w++ {
		empty := &t.ring[int(w%int64(len(t.ring)))]
		*empty = window{num: w}
	}
	t.lastWin = wNow
	t.curWin.Store(wNow)
}

// --- requests and sampling ------------------------------------------

// Request is the telemetry of one service request, held by value on
// the caller's stack: xlate begins one per operation, charges a segment
// for each shard it locks, and finishes. Every SampleEvery-th request
// is sampled and also gathers its segments as an obs event chain for
// the Chrome-trace export; only those allocate, once. The Request of a
// nil sink is inert — each method is a nil test small enough to inline
// — so the service has one body per operation whether telemetry is
// attached or not. What a sampled request must remember (id, start,
// key count) rides in the chain's first slot.
//
// Segments tile the request, and clock reads are part of the contract
// (tests tick a ManualClock): Begin reads the clock once, each segment
// reads it once at its end, and that end is the next segment's start.
// A request over s shards reads the clock 1 + s times, sampled or not;
// Finish reads nothing, since the request ends where its last segment
// did.
type Request struct {
	t *Sink
	// chain is non-nil when sampled. While the request runs, chain[0]
	// is the request span in the making and the segments follow it;
	// retain moves it behind them, the order readers expect.
	chain []obs.Event
	// lastNs is the clock at Begin, then at the end of each segment.
	lastNs int64
}

// Begin starts a request of keys keys.
func (t *Sink) Begin(keys int) Request {
	if t == nil {
		return Request{}
	}
	return t.begin(keys)
}

// begin reads the start off the clock, allocates the next request id
// and samples deterministically: ids are a dense counter and every
// SampleEvery-th is sampled, so the same request sequence always
// samples the same requests.
func (t *Sink) begin(keys int) Request {
	r := Request{t: t, lastNs: t.clock.Now()}
	if id := t.reqSeq.Add(1); t.cfg.SampleEvery > 0 && id%t.cfg.SampleEvery == 0 {
		// The request span plus one segment per shard touched.
		r.chain = make([]obs.Event, 1, min(keys, len(t.shards))+1)
		r.chain[0] = obs.Event{
			Time: units.Time(r.lastNs - t.baseNs),
			Kind: obs.KindXlateReq,
			Arg:  uint64(keys),
			Xfer: uint64(id),
		}
	}
	return r
}

// Lookups ends a segment against shard si: n keys looked up, hits of
// them resident.
func (r *Request) Lookups(si int, n, hits int64) {
	if r.t != nil {
		r.lookups(si, n, hits)
	}
}

// lookups is Lookups' work, out of line so that the nil test inlines.
func (r *Request) lookups(si int, n, hits int64) {
	durNs := r.endSegment(si, n)
	r.t.RecordLookups(si, n, hits, durNs, r.lastNs)
}

// Inserts ends a segment against shard si: n keys installed,
// evictions of them displacing an entry.
func (r *Request) Inserts(si int, n, evictions int64) {
	if r.t != nil {
		r.inserts(si, n, evictions)
	}
}

// inserts is Inserts' work, out of line like lookups.
func (r *Request) inserts(si int, n, evictions int64) {
	durNs := r.endSegment(si, n)
	r.t.RecordInserts(si, n, evictions, durNs, r.lastNs)
}

// endSegment reads the segment's end off the clock, makes it the next
// segment's start and, on a sampled request, appends the segment to
// the chain.
func (r *Request) endSegment(si int, n int64) (durNs int64) {
	startNs := r.lastNs
	r.lastNs = r.t.clock.Now()
	if r.chain != nil {
		r.chain = append(r.chain, obs.Event{
			Time: units.Time(startNs - r.t.baseNs),
			Dur:  units.Time(r.lastNs - startNs),
			Kind: obs.KindXlateShard,
			Arg:  uint64(si),
			Arg2: uint64(n),
			Xfer: r.chain[0].Xfer,
		})
	}
	return r.lastNs - startNs
}

// Finish ends the request; hits is the request-wide hit count (zero
// for inserts). A sampled request's span closes where its last segment
// ended.
func (r *Request) Finish(hits int64) {
	if r.chain != nil {
		r.retain(hits)
	}
}

// retain completes a sampled request's span and keeps the chain in the
// sampled-trace ring.
func (r *Request) retain(hits int64) {
	t := r.t
	span := r.chain[0]
	span.Dur = units.Time(r.lastNs-t.baseNs) - span.Time
	if t.cfg.MaxTraces == 0 {
		return
	}
	span.Arg2 = uint64(hits)
	copy(r.chain, r.chain[1:])
	r.chain[len(r.chain)-1] = span
	kept := traceChain{id: int64(span.Xfer), events: r.chain}
	t.mu.Lock()
	if len(t.traces) < t.cfg.MaxTraces {
		t.traces = append(t.traces, kept)
	} else {
		t.traces[int(t.traceN)%t.cfg.MaxTraces] = kept
	}
	t.traceN++
	t.mu.Unlock()
}

// TraceRuns snapshots the retained sampled chains as one obs.Run in
// request-id order, ready for obs.WriteChromeTrace.
func (t *Sink) TraceRuns() []obs.Run {
	t.mu.Lock()
	chains := make([]traceChain, len(t.traces))
	copy(chains, t.traces)
	t.mu.Unlock()
	// The ring is insertion-ordered until it wraps; restore id order.
	slices.SortFunc(chains, func(a, b traceChain) int { return cmp.Compare(a.id, b.id) })
	var events []obs.Event
	for _, c := range chains {
		events = append(events, c.events...)
	}
	if events == nil {
		return nil
	}
	return []obs.Run{obs.NewRun("xlate/live-sampled", events)}
}

// SampledTraces reports how many chains have ever been retained.
func (t *Sink) SampledTraces() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceN
}
