package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testConfig: 4 shards, 1000 ns windows, ring of 4, sample 1-in-4,
// SLO target 100 ns with a 10% budget. Small numbers so tests can
// assert exact window arithmetic.
func testConfig() Config {
	return Config{
		Shards:      4,
		WindowNs:    1000,
		Windows:     4,
		SampleEvery: 4,
		MaxTraces:   3,
		SLOTargetNs: 100,
		SLOBudget:   0.1,
	}
}

func newTestSink(t *testing.T, start int64) (*Sink, *ManualClock, *fakeService) {
	t.Helper()
	clk := NewManualClock(start)
	s, err := New(testConfig(), clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := &fakeService{sink: s, clk: clk, counts: make([]Totals, testConfig().Shards)}
	if err := s.Bind(f.add); err != nil {
		t.Fatal(err)
	}
	return s, clk, f
}

// fakeService stands in for the xlate service: it keeps the per-shard
// counts a bound sink reads, under a lock as the shards do. Each
// operation runs as a sampled request's segment would: the window ring
// folds to the clock first, then the count moves, then the segment's
// latency is recorded.
type fakeService struct {
	sink   *Sink
	clk    *ManualClock
	mu     sync.Mutex
	counts []Totals
}

// add is the sink's count source.
func (f *fakeService) add(si int, t *Totals) {
	f.mu.Lock()
	c := f.counts[si]
	f.mu.Unlock()
	t.Lookups += c.Lookups
	t.Hits += c.Hits
	t.Misses += c.Misses
	t.Inserts += c.Inserts
	t.Evictions += c.Evictions
	t.Invalidations += c.Invalidations
}

// op counts one operation against shard si and, when durNs >= 0,
// records it as a timed segment of durNs.
func (f *fakeService) op(si int, durNs int64, count func(*Totals)) {
	now := f.clk.Now()
	f.sink.maybeFold(now)
	f.mu.Lock()
	count(&f.counts[si])
	f.mu.Unlock()
	if durNs >= 0 {
		f.sink.RecordLookups(si, 0, 0, durNs, now)
	}
}

func (f *fakeService) lookups(si int, n, hits, durNs int64) {
	f.op(si, durNs, func(c *Totals) { c.Lookups += n; c.Hits += hits; c.Misses += n - hits })
}

func (f *fakeService) inserts(si int, n, evictions, durNs int64) {
	f.op(si, durNs, func(c *Totals) { c.Inserts += n; c.Evictions += evictions })
}

// invalidations are not timed.
func (f *fakeService) invalidations(si int, n int64) {
	f.op(si, -1, func(c *Totals) { c.Invalidations += n })
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"shards", func(c *Config) { c.Shards = 0 }},
		{"window", func(c *Config) { c.WindowNs = 0 }},
		{"ring", func(c *Config) { c.Windows = 1 }},
		{"sample", func(c *Config) { c.SampleEvery = -1 }},
		{"traces", func(c *Config) { c.MaxTraces = -1 }},
		{"target", func(c *Config) { c.SLOTargetNs = 0 }},
		{"budget-zero", func(c *Config) { c.SLOBudget = 0 }},
		{"budget-over", func(c *Config) { c.SLOBudget = 1.5 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config %+v", tc.name, cfg)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("Validate rejected good config: %v", err)
	}
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Errorf("Validate rejected DefaultConfig: %v", err)
	}
	if _, err := New(testConfig(), nil); err == nil {
		t.Error("New accepted a nil clock")
	}
}

func TestWindowRotation(t *testing.T) {
	s, clk, f := newTestSink(t, 0)

	// Window 0: 10 lookups (7 hits) on shard 1, one insert on shard 2.
	f.lookups(1, 10, 7, 50)
	f.inserts(2, 1, 0, 30)

	// Cross into window 1 and record there.
	clk.Set(1500)
	f.lookups(0, 4, 4, 20)

	// Cross into window 2; read the series.
	clk.Set(2100)
	sr := s.SeriesReport(clk.Now())
	if sr.WindowNs != 1000 || sr.Windows != 4 {
		t.Fatalf("series geometry = %d/%d, want 1000/4", sr.WindowNs, sr.Windows)
	}
	if len(sr.Points) != 3 {
		t.Fatalf("got %d points, want 3 (win0, win1, open win2): %+v", len(sr.Points), sr.Points)
	}
	w0, w1, open := sr.Points[0], sr.Points[1], sr.Points[2]
	if w0.Window != 0 || w0.Open {
		t.Fatalf("point 0 = %+v, want closed window 0", w0)
	}
	if w0.Lookups != 10 || w0.Hits != 7 || w0.Misses != 3 || w0.Inserts != 1 || w0.Ops != 2 || w0.SumNs != 80 {
		t.Errorf("window 0 totals wrong: %+v", w0)
	}
	if w0.LookupsPerSec != 10*1e9/1000 {
		t.Errorf("window 0 rate = %g, want %g", w0.LookupsPerSec, 10*1e9/1000.0)
	}
	if w1.Window != 1 || w1.Lookups != 4 || w1.Hits != 4 || w1.Ops != 1 {
		t.Errorf("window 1 totals wrong: %+v", w1)
	}
	if open.Window != 2 || !open.Open || open.Lookups != 0 {
		t.Errorf("open point wrong: %+v", open)
	}
}

func TestOpenWindowDeltas(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	f.lookups(0, 5, 5, 10)
	clk.Set(400)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 1 {
		t.Fatalf("got %d points, want just the open window", len(sr.Points))
	}
	p := sr.Points[0]
	if !p.Open || p.Lookups != 5 || p.Ops != 1 {
		t.Fatalf("open point = %+v, want 5 lookups in the open window", p)
	}
	// Rate over the 400 ns elapsed, not the full window width.
	if p.LookupsPerSec != 5*1e9/400 {
		t.Errorf("open rate = %g, want %g", p.LookupsPerSec, 5*1e9/400.0)
	}
}

func TestIdleWindowsZeroed(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	f.lookups(0, 1, 1, 10)
	// Jump two windows ahead: window 0 closes with the lookup, windows
	// 1 and 2 were idle and must appear as explicit zeros.
	clk.Set(3200)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 4 {
		t.Fatalf("got %d points, want 4 (w0..w2 closed + open w3)", len(sr.Points))
	}
	if sr.Points[0].Lookups != 1 {
		t.Errorf("window 0 = %+v, want the lookup", sr.Points[0])
	}
	for _, p := range sr.Points[1:3] {
		if p.Lookups != 0 || p.Ops != 0 || p.Open {
			t.Errorf("idle window %d not zeroed: %+v", p.Window, p)
		}
	}
}

func TestRingWrap(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	// Record one lookup per window for 7 windows; ring holds 4, so only
	// windows 3..6 survive.
	for w := int64(0); w < 7; w++ {
		clk.Set(w*1000 + 100)
		f.lookups(0, w+1, 0, 10)
	}
	clk.Set(7100)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 5 {
		t.Fatalf("got %d points, want 4 closed + open", len(sr.Points))
	}
	for i, p := range sr.Points[:4] {
		wantWin := int64(3 + i)
		if p.Window != wantWin || p.Lookups != wantWin+1 {
			t.Errorf("point %d = window %d lookups %d, want window %d lookups %d",
				i, p.Window, p.Lookups, wantWin, wantWin+1)
		}
	}
}

// TestBackwardsClockClamped is the regression test for the monotonic
// -clock assumption: a wall clock stepping backwards past a window
// boundary (NTP correction, VM migration) must be treated as
// same-window. The ring must never move backwards, records during the
// stepped-back interval are attributed to the open window, and the
// series stays coherent once the clock recovers.
func TestBackwardsClockClamped(t *testing.T) {
	s, clk, f := newTestSink(t, 0)

	// Window 0: 3 lookups. Then jump to window 2 and record 5 more,
	// folding window 0 closed and zeroing idle window 1.
	f.lookups(0, 3, 3, 10)
	clk.Set(2500)
	f.lookups(0, 5, 5, 10)

	// The clock steps backwards into window 1 territory. These records
	// must clamp into the open window (2), not rewind the ring.
	clk.Set(1100)
	f.lookups(0, 7, 7, 10)
	f.inserts(1, 2, 0, 10)

	// A read with the backwards now must not corrupt the ring either
	// (report paths call foldLocked directly).
	sr := s.SeriesReport(clk.Now())
	for _, p := range sr.Points[:len(sr.Points)-1] {
		if p.Window >= 2 {
			t.Fatalf("window %d closed by a backwards clock: %+v", p.Window, p)
		}
	}

	// Clock recovers past window 2: the fold must attribute BOTH the
	// pre-step and stepped-back records to window 2.
	clk.Set(3200)
	sr = s.SeriesReport(clk.Now())
	if len(sr.Points) != 4 {
		t.Fatalf("got %d points, want w0..w2 closed + open w3: %+v", len(sr.Points), sr.Points)
	}
	w0, w1, w2, open := sr.Points[0], sr.Points[1], sr.Points[2], sr.Points[3]
	if w0.Window != 0 || w0.Lookups != 3 {
		t.Errorf("window 0 = %+v, want 3 lookups", w0)
	}
	if w1.Window != 1 || w1.Lookups != 0 || w1.Inserts != 0 {
		t.Errorf("idle window 1 not zeroed: %+v", w1)
	}
	if w2.Window != 2 || w2.Lookups != 12 || w2.Inserts != 2 {
		t.Errorf("window 2 = %+v, want 12 lookups + 2 inserts (5 pre-step + 7 clamped)", w2)
	}
	if open.Window != 3 || !open.Open || open.Lookups != 0 {
		t.Errorf("open point = %+v, want empty open window 3", open)
	}
}

func TestQuantilesMatchDigest(t *testing.T) {
	s, clk, _ := newTestSink(t, 0)
	var want analyze.Digest
	for i := int64(1); i <= 200; i++ {
		d := i * 37 % 5000
		s.RecordLookups(int(i)%4, 1, 1, d, clk.Now())
		want.Add(d)
	}
	clk.Set(1100)
	sr := s.SeriesReport(clk.Now())
	p := sr.Points[0]
	if p.P50Ns != want.Quantile(50) || p.P99Ns != want.Quantile(99) {
		t.Errorf("window quantiles p50=%d p99=%d, want %d/%d",
			p.P50Ns, p.P99Ns, want.Quantile(50), want.Quantile(99))
	}
}

func TestSLOSnapshot(t *testing.T) {
	s, clk, _ := newTestSink(t, 0)
	// 90 fast ops (50 ns) + 10 slow (200 ns > 100 ns target): exactly
	// the 10% budget.
	for i := 0; i < 90; i++ {
		s.RecordLookups(i%4, 1, 1, 50, clk.Now())
	}
	for i := 0; i < 10; i++ {
		s.RecordLookups(i%4, 1, 1, 200, clk.Now())
	}
	clk.Set(1100)
	r := s.SLOSnapshot(clk.Now())
	if r.Ops != 100 || r.Slow != 10 {
		t.Fatalf("ops/slow = %d/%d, want 100/10", r.Ops, r.Slow)
	}
	if r.BudgetUsed != 1.0 {
		t.Errorf("budget used = %g, want exactly 1.0", r.BudgetUsed)
	}
	if r.BurnRate != 1.0 {
		t.Errorf("burn rate = %g, want 1.0 (last closed window at budget)", r.BurnRate)
	}
	// p99 rank 99 lands in the fast bucket... rank = ceil(100*99/100) =
	// 99 → 90 fast then 9 slow → slow bucket. 200 ns > target → out.
	if r.P99Ns <= r.TargetP99Ns {
		t.Errorf("p99 = %d, expected over the %d target", r.P99Ns, r.TargetP99Ns)
	}
	if r.Compliant {
		t.Error("SLO reported compliant with p99 over target")
	}

	// A healthy service: new sink, all fast.
	s2, clk2, _ := newTestSink(t, 0)
	for i := 0; i < 100; i++ {
		s2.RecordLookups(i%4, 1, 1, 50, clk2.Now())
	}
	clk2.Set(1100)
	r2 := s2.SLOSnapshot(clk2.Now())
	if !r2.Compliant || r2.BudgetUsed != 0 || r2.Slow != 0 {
		t.Errorf("healthy SLO = %+v, want compliant with zero budget use", r2)
	}
}

func TestSLOIncludesOpenWindow(t *testing.T) {
	s, clk, _ := newTestSink(t, 0)
	s.RecordLookups(0, 1, 1, 500, clk.Now()) // slow, still in the open window
	r := s.SLOSnapshot(clk.Now())
	if r.Ops != 1 || r.Slow != 1 {
		t.Fatalf("open-window SLO ops/slow = %d/%d, want 1/1", r.Ops, r.Slow)
	}
	if r.Compliant {
		t.Error("compliant despite 100% slow ops in the open window")
	}
}

func TestSampling(t *testing.T) {
	s, _, _ := newTestSink(t, 0)
	var sampled []int64
	for i := 0; i < 10; i++ {
		if req := s.Begin(1); req.chain != nil {
			sampled = append(sampled, int64(req.chain[0].Xfer))
		}
	}
	if len(sampled) != 2 || sampled[0] != 4 || sampled[1] != 8 {
		t.Fatalf("sampled ids = %v, want [4 8] with SampleEvery=4", sampled)
	}

	// SampleEvery=0 disables sampling entirely.
	cfg := testConfig()
	cfg.SampleEvery = 0
	s2, err := New(cfg, NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if req := s2.Begin(1); req.chain != nil {
			t.Fatal("sampled a request with SampleEvery=0")
		}
	}
}

func TestTraceChains(t *testing.T) {
	s, clk, _ := newTestSink(t, 0)
	// Requests 4 and 8 are the sampled ones of eight 8-key batches
	// that each touch shards 2 and 3. The request ends where its last
	// segment does: the 10 ns before Finish are no part of it.
	for id := int64(1); id <= 8; id++ {
		req := s.Begin(8)
		if sampled := req.chain != nil; sampled != (id%4 == 0) {
			t.Fatalf("request %d: sampled %v", id, sampled)
		}
		clk.Advance(5)
		req.Segment(2, 5)
		clk.Advance(7)
		req.Segment(3, 3)
		clk.Advance(10)
		req.Finish(6)
	}
	runs := s.TraceRuns()
	if len(runs) != 1 || runs[0].Label != "xlate/live-sampled" {
		t.Fatalf("runs = %+v, want one xlate/live-sampled run", runs)
	}
	evs := runs[0].Chunks()[0]
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6 (2 chains × (2 shard + 1 req))", len(evs))
	}
	// Chain for id 4 first (id order), request span last within a chain.
	if evs[0].Kind != obs.KindXlateShard || evs[0].Xfer != 4 || evs[0].Arg != 2 || evs[0].Arg2 != 5 || evs[0].Dur != 5 {
		t.Errorf("first event = %+v, want the 5 ns shard 2 segment of request 4", evs[0])
	}
	if evs[1].Kind != obs.KindXlateShard || evs[1].Time != evs[0].Time+5 || evs[1].Dur != 7 {
		t.Errorf("second event = %+v, want the 7 ns shard 3 segment starting where the first ended", evs[1])
	}
	if evs[2].Kind != obs.KindXlateReq || evs[2].Xfer != 4 || evs[2].Arg != 8 || evs[2].Arg2 != 6 ||
		evs[2].Time != evs[0].Time || evs[2].Dur != 12 {
		t.Errorf("third event = %+v, want the 12 ns request span of request 4", evs[2])
	}
	if evs[5].Kind != obs.KindXlateReq || evs[5].Xfer != 8 {
		t.Errorf("last event = %+v, want request span of request 8", evs[5])
	}
	if got := s.SampledTraces(); got != 2 {
		t.Errorf("SampledTraces = %d, want 2", got)
	}
}

// countingClock is a ticking ManualClock that counts its reads.
type countingClock struct {
	ManualClock
	reads int64
}

func (c *countingClock) Now() int64 {
	c.reads++
	return c.ManualClock.Now()
}

// TestRequestClockContract: an unsampled request reads the clock
// once, at Begin, whatever it touches; a sampled request over s shards
// reads it 1 + s times, and its segments tile its span — each starts
// where the one before it ended, and their durations sum exactly to
// the request's.
func TestRequestClockContract(t *testing.T) {
	for _, sampleEvery := range []int64{0, 1, 2} {
		for shards := 0; shards <= 4; shards++ {
			clk := &countingClock{}
			clk.SetTick(3)
			cfg := testConfig()
			cfg.SampleEvery, cfg.WindowNs = sampleEvery, 1<<40
			s, err := New(cfg, clk)
			if err != nil {
				t.Fatal(err)
			}
			// Requests 1 and 2: at SampleEvery 2 only the second is
			// sampled.
			for id := int64(1); id <= 2; id++ {
				clk.reads = 0
				req := s.Begin(8)
				for si := 0; si < shards; si++ {
					clk.Advance(int64(10 * (si + 1)))
					req.Segment(si, 2)
				}
				req.Finish(int64(shards))
				want := int64(1)
				if sampleEvery > 0 && id%sampleEvery == 0 {
					want += int64(shards)
				}
				if clk.reads != want {
					t.Errorf("SampleEvery=%d, %d shards, request %d: %d clock reads, want %d",
						sampleEvery, shards, id, clk.reads, want)
				}
			}
			if sampleEvery == 0 {
				if runs := s.TraceRuns(); runs != nil {
					t.Errorf("SampleEvery=0 retained %d trace runs", len(runs))
				}
				continue
			}
			// The last chain is request 2's: its segments, then its span.
			evs := s.TraceRuns()[0].Chunks()[0]
			span := evs[len(evs)-1]
			at, sum := span.Time, units.Time(0)
			for _, ev := range evs[len(evs)-1-shards : len(evs)-1] {
				if ev.Time != at {
					t.Errorf("%d shards: segment %+v starts at %d, want %d", shards, ev, ev.Time, at)
				}
				at += ev.Dur
				sum += ev.Dur
			}
			if sum != span.Dur {
				t.Errorf("%d shards: segments sum to %d ns, request span is %d ns", shards, sum, span.Dur)
			}
		}
	}
}

// TestSampledTiming: at SampleEvery 4 only requests 4, 8 and 12 of
// twelve are timed, so the sink's ops are exactly those requests'
// segments and the histogram holds one observation per op, while the
// counts cover every request.
func TestSampledTiming(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	clk.SetTick(10)
	var keys, segs int64
	for id := int64(1); id <= 12; id++ {
		req := s.Begin(8)
		shards := int(id%3) + 1
		for si := 0; si < shards; si++ {
			f.op(si, -1, func(c *Totals) { c.Lookups += 2; c.Hits += 2 })
			req.Segment(si, 2)
			keys += 2
		}
		req.Finish(int64(2 * shards))
		if id%4 == 0 {
			segs += int64(shards)
		}
	}
	tot := s.TotalsSnapshot()
	if tot.Lookups != keys || tot.Hits != keys {
		t.Errorf("lookups/hits = %d/%d, want every request's %d", tot.Lookups, tot.Hits, keys)
	}
	// A sampled segment spans two clock reads, the fake's own and the
	// segment's end: 20 ns at a 10 ns tick.
	if tot.Ops != segs || tot.SumNs != 20*segs {
		t.Errorf("ops %d over %d ns, want the sampled requests' %d segments over %d ns", tot.Ops, tot.SumNs, segs, 20*segs)
	}
	le, count := scrapeLiveHistogram(t, s, clk.Now())
	if count != tot.Ops || le[len(le)-1] != tot.Ops {
		t.Errorf("histogram count %d, +Inf %d, want ops %d", count, le[len(le)-1], tot.Ops)
	}
	if got := s.SLOSnapshot(clk.Now()).Ops; got != segs {
		t.Errorf("SLO over %d ops, want %d", got, segs)
	}
	if got := s.SampledTraces(); got != 3 {
		t.Errorf("SampledTraces = %d, want 3", got)
	}
}

func TestTraceRingBound(t *testing.T) {
	s, _, _ := newTestSink(t, 0)
	// MaxTraces = 3; retain 5 chains, ids 1..5. Oldest two evicted.
	for id := int64(1); id <= 5; id++ {
		req := Request{t: s, chain: []obs.Event{{Kind: obs.KindXlateReq, Arg: 1, Xfer: uint64(id)}}}
		req.Finish(1)
	}
	runs := s.TraceRuns()
	evs := runs[0].Chunks()[0]
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (ring bound)", len(evs))
	}
	for i, wantID := range []uint64{3, 4, 5} {
		if evs[i].Xfer != wantID {
			t.Errorf("event %d id = %d, want %d", i, evs[i].Xfer, wantID)
		}
	}
	if got := s.SampledTraces(); got != 5 {
		t.Errorf("SampledTraces = %d, want 5 ever retained", got)
	}
}

func TestShardSnapshots(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	// Shard 0 takes 3x the lookups of shards 1..3: 600/200/200/200.
	f.lookups(0, 600, 300, 40)
	for si := 1; si < 4; si++ {
		f.lookups(si, 200, 100, 80)
	}
	f.inserts(1, 10, 2, 60)
	f.invalidations(2, 5)
	snaps := s.ShardSnapshots(clk.Now())
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	if snaps[0].Lookups != 600 || snaps[0].Hits != 300 || snaps[0].Misses != 300 {
		t.Errorf("shard 0 = %+v", snaps[0])
	}
	if snaps[0].LoadPermille != 500 {
		t.Errorf("shard 0 load = %d‰, want 500", snaps[0].LoadPermille)
	}
	for si := 1; si < 4; si++ {
		if snaps[si].LoadPermille != 166 {
			t.Errorf("shard %d load = %d‰, want 166", si, snaps[si].LoadPermille)
		}
	}
	if snaps[1].Inserts != 10 || snaps[1].Evictions != 2 {
		t.Errorf("shard 1 inserts/evictions = %d/%d, want 10/2", snaps[1].Inserts, snaps[1].Evictions)
	}
	if snaps[2].Invalidations != 5 {
		t.Errorf("shard 2 invalidations = %d, want 5", snaps[2].Invalidations)
	}
	if snaps[1].MaxNs < 80 {
		t.Errorf("shard 1 max = %d, want >= 80", snaps[1].MaxNs)
	}
	if snaps[1].P50Ns <= 0 || snaps[1].P99Ns < snaps[1].P50Ns {
		t.Errorf("shard 1 quantiles inconsistent: %+v", snaps[1])
	}
}

func TestTotalsSnapshot(t *testing.T) {
	s, _, f := newTestSink(t, 0)
	f.lookups(0, 10, 4, 50)
	f.inserts(1, 3, 1, 20)
	f.invalidations(2, 2)
	got := s.TotalsSnapshot()
	want := Totals{Lookups: 10, Hits: 4, Misses: 6, Inserts: 3, Evictions: 1,
		Invalidations: 2, Ops: 2, Slow: 0, SumNs: 70}
	if got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
}

// TestPrometheusOutput pins the live block byte for byte (the joined
// /metrics golden in internal/serve pins it next to the other blocks)
// and checks the shape of the runtime block, whose values are the
// real process's.
func TestPrometheusOutput(t *testing.T) {
	s, clk, _ := newTestSink(t, 0)
	s.RecordLookups(0, 100, 90, 50, clk.Now())
	s.RecordLookups(1, 50, 10, 300, clk.Now())
	clk.Set(1100)
	var b strings.Builder
	if err := s.WritePrometheus(&b, clk.Now()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	path := filepath.Join("testdata", "live.golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -run TestPrometheusOutput -update` to create)", err)
	}
	if b.String() != string(want) {
		t.Errorf("live metrics drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, b.String(), want)
	}

	var rb strings.Builder
	if err := WriteRuntimeMetrics(&rb); err != nil {
		t.Fatalf("WriteRuntimeMetrics: %v", err)
	}
	for _, name := range []string{"utlb_go_goroutines", "utlb_go_heap_alloc_bytes", "utlb_go_gc_pause_ns_total"} {
		shape := regexp.MustCompile(`(?m)^# HELP ` + name + ` [^\n]+\n# TYPE ` + name + ` gauge\n` + name + ` \d+$`)
		if !shape.MatchString(rb.String()) {
			t.Errorf("runtime metrics: no HELP/TYPE/sample triple for %s", name)
		}
	}
}

// scrapeLiveHistogram writes the sink's metrics and returns the
// utlb_live_op_duration_ns bucket values in le order (+Inf last) and
// the _count.
func scrapeLiveHistogram(t *testing.T, s *Sink, now int64) (le []int64, count int64) {
	t.Helper()
	var b strings.Builder
	if err := s.WritePrometheus(&b, now); err != nil {
		t.Errorf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		v, _ := strconv.ParseInt(value, 10, 64)
		switch {
		case strings.HasPrefix(name, "utlb_live_op_duration_ns_bucket{"):
			le = append(le, v)
		case name == "utlb_live_op_duration_ns_count":
			count = v
		}
	}
	if len(le) != obs.NumBuckets+1 {
		t.Errorf("scraped %d bucket lines, want %d", len(le), obs.NumBuckets+1)
	}
	return le, count
}

// TestLiveHistogramNeverFlatters: an le line may only count an
// observation that really was at or under its boundary. A digest
// bucket is coarsened by its upper bound, so 129 ns — and 128 ns,
// which shares the digest bucket [128,131] — count under le="256",
// not le="128"; 64 ns, in [64,65], counts under le="128".
func TestLiveHistogramNeverFlatters(t *testing.T) {
	for _, tc := range []struct{ durNs, le128, le256 int64 }{
		{64, 1, 1},
		{128, 0, 1},
		{129, 0, 1},
		{257, 0, 0},
	} {
		s, clk, _ := newTestSink(t, 0)
		s.RecordLookups(0, 1, 1, tc.durNs, clk.Now())
		le, count := scrapeLiveHistogram(t, s, clk.Now())
		if le[0] != tc.le128 || le[1] != tc.le256 || count != 1 {
			t.Errorf("%d ns: le=128 reads %d, le=256 reads %d, count %d; want %d, %d, 1",
				tc.durNs, le[0], le[1], count, tc.le128, tc.le256)
		}
	}
}

// TestConcurrentRecording exercises the lock-free hot path, the count
// source and the folding readers together under the race detector.
func TestConcurrentRecording(t *testing.T) {
	s, clk, f := newTestSink(t, 0)
	clk.SetTick(7) // every Now() advances time: windows rotate under load
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				req := s.Begin(2)
				f.op(g, -1, func(c *Totals) { c.Lookups += 2; c.Hits++; c.Misses++ })
				req.Segment(g, 2)
				if i%10 == 0 {
					f.inserts(g, 1, 0, 40)
				}
				req.Finish(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			now := clk.Now()
			s.SeriesReport(now)
			s.SLOSnapshot(now)
			s.ShardSnapshots(now)
			s.TraceRuns()
			// A scrape racing the records must still be a histogram:
			// cumulative, and no bucket above the count.
			le, count := scrapeLiveHistogram(t, s, now)
			for b := 1; b < len(le); b++ {
				if le[b] < le[b-1] {
					t.Errorf("scrape %d: bucket %d = %d below bucket %d = %d", i, b, le[b], b-1, le[b-1])
				}
			}
			if inf := le[len(le)-1]; inf != count {
				t.Errorf("scrape %d: +Inf %d != _count %d", i, inf, count)
			}
		}
	}()
	wg.Wait()
	<-done
	tot := s.TotalsSnapshot()
	if tot.Lookups != 4*500*2 {
		t.Errorf("lookups = %d, want %d", tot.Lookups, 4*500*2)
	}
	if tot.Inserts != 4*50 {
		t.Errorf("inserts = %d, want %d", tot.Inserts, 4*50)
	}
	// Timed: the 2000 requests' 1-in-4 sample, one segment each, and
	// the 200 inserts the fake records itself.
	if tot.Ops != 2000/4+200 {
		t.Errorf("ops = %d, want %d", tot.Ops, 2000/4+200)
	}
}
