package utlb_test

// Hot-path allocation budget suite. Each test measures one steady-state
// operation over a fixed number of runs and fails when it allocates past
// an exact budget. The budgets are deliberately tight: every reusable
// structure on these paths (cache storage, classifier slab, per-process
// library scratch, the dense key table, the memoised trace store) is
// supposed to survive across operations, so a regression here means a
// reuse path quietly fell back to allocating. The budgets run in the
// plain test pass only: `make race` skips them, because the race
// detector's own allocations would be counted against the code.

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"utlb"
	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/xlate"
)

// measureAllocs reports f's allocations per call over runs calls
// (testing.AllocsPerRun), with the collector off and after two calls to
// warm up: a simulation scratch settles on its second run, and a
// collection empties the sync.Pools a steady state draws from. The run
// count is fixed, unlike a benchmark's b.N, which a loaded machine can
// cut to one or two: then the second run's few extra allocations, or
// one of the runtime's own, land in the per-call count.
func measureAllocs(runs int, f func()) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	return int64(testing.AllocsPerRun(runs, f))
}

// simRuns is how many times a budget runs a whole simulation.
const simRuns = 10

// TestSimulateRunAllocBudget is the headline budget: one full
// trace-driven run of each design through reused scratch. A UTLB run
// once spent 1695 allocs/op, and 175 when the scratch first appeared;
// with the page tables, policy tables, translation-table directories,
// lookup trees and physical memory all reset in place, what is left is
// the run's fixed object graph (host, NIC, bus, cache header, driver,
// one Process — and for UTLB one Lib — per process). A design held in
// RunScratch allocates nothing of its own per run, and nothing per
// record: each count is the same at two trace scales. The byte budget
// is the sharper half: a table that quietly went back to being rebuilt
// costs kilobytes per run long before it costs many allocations. The
// allocation budgets are exact — the count does not depend on the
// machine — so an increase is a real leak back onto the path, and a
// decrease should ratchet it.
func TestSimulateRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	const byteBudget = 4096 // measured 1.8 KB for UTLB, 1.0 KB Intr, 0.9 KB PerProc; the first scratch left 354 KB
	for _, d := range []struct {
		mech   utlb.Mechanism
		allocs int64 // exact
	}{
		{utlb.UTLB, 27},       // once 1695, then 175
		{utlb.Interrupt, 16},  // 26 while the baseline rebuilt its state per run
		{utlb.PerProcess, 15}, // 539 at scale 0.05 and 968 at 0.1 while it allocated per record, 21 while it built a driver
	} {
		for _, scale := range []float64{0.05, 0.1} {
			tr, err := utlb.GenerateTrace("water-spatial", 1, scale)
			if err != nil {
				t.Fatal(err)
			}
			cfg := utlb.DefaultSimConfig()
			cfg.Mechanism = d.mech
			cfg.CacheEntries = 1024
			cfg.IndexOffset = d.mech != utlb.PerProcess // a directly indexed table has no index to offset
			scr := utlb.NewSimScratch()
			if _, err := utlb.SimulateWith(tr, cfg, scr); err != nil { // warm the scratch
				t.Fatal(err)
			}
			run := func() {
				if _, err := utlb.SimulateWith(tr, cfg, scr); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("%v at scale %.2f (%d records)", d.mech, scale, len(tr))
			if got := measureAllocs(simRuns, run); got != d.allocs {
				t.Errorf("%s: SimulateWith allocates %d/op with warm scratch, want exactly %d", name, got, d.allocs)
			} else {
				t.Logf("%s: SimulateWith: %d allocs/op", name, got)
			}
			if got := bytesPerRun(simRuns, run); got > byteBudget {
				t.Errorf("%s: SimulateWith allocates %d B/op with warm scratch, budget %d: a scratch-held table is being rebuilt per run", name, got, byteBudget)
			} else {
				t.Logf("%s: SimulateWith: %d B/op (budget %d)", name, got, byteBudget)
			}
		}
	}
}

// TestSimulateDisabledRecorderAllocBudget keeps the observability
// zero-overhead guarantee: attaching no recorder must not change the
// allocation profile — every record site is a single nil compare when
// disabled. The pooled Simulate path gets a slightly looser budget
// than the scratch path because a GC can drain the scratch pool
// mid-measurement and force one cold rebuild.
func TestSimulateDisabledRecorderAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	tr, err := utlb.GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 1024
	got := measureAllocs(simRuns, func() {
		if _, err := utlb.Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 195 // pooled steady state measures 27; headroom for pool drain
	if got > budget {
		t.Errorf("disabled-recorder Simulate allocates %d/op, budget %d: instrumentation or scratch reuse leaked onto the hot path", got, budget)
	} else {
		t.Logf("disabled-recorder Simulate: %d allocs/op (budget %d)", got, budget)
	}
}

// TestTLBCacheLookupFillAllocBudget pins the per-operation cache paths
// at zero: lookup hits, lookup misses, and insert-with-eviction on a
// full cache all work in preallocated storage (the SoA line array and
// the dense key table, both sized at construction).
func TestTLBCacheLookupFillAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	c := tlbcache.New(tlbcache.Config{Entries: 1024, Ways: 2, IndexOffset: true})
	// Fill past capacity so inserts below evict (the steady state of a
	// full cache) and the dense table has seen its growth.
	for v := units.VPN(0); v < 4096; v++ {
		c.Insert(tlbcache.Key{PID: 1, VPN: v}, units.PFN(v))
	}
	i := 0
	lookups := measureAllocs(1000, func() { c.Lookup(tlbcache.Key{PID: 1, VPN: units.VPN(i % 8192)}); i++ })
	if lookups > 0 {
		t.Errorf("tlbcache.Lookup allocates %d/op, budget 0", lookups)
	}
	inserts := measureAllocs(1000, func() { c.Insert(tlbcache.Key{PID: 1, VPN: units.VPN(i % 8192)}, units.PFN(i)); i++ })
	if inserts > 0 {
		t.Errorf("tlbcache.Insert allocates %d/op on a full cache, budget 0", inserts)
	}
	t.Logf("tlbcache: lookup %d allocs/op, insert-with-evict %d allocs/op", lookups, inserts)
}

// TestXlateLookupAllocBudget pins the translation service's four hot
// operations at zero allocations — Lookup and Insert of one key, and
// LookupMany and InsertMany of 64 — in all three telemetry states:
//
//   - telemetry disabled (nil sink): the baseline hot path, where the
//     inert telemetry.Request must allocate nothing;
//   - telemetry enabled, request not sampled: one clock read and the
//     request-id counter only;
//   - telemetry enabled with sampling off entirely (SampleEvery 0).
//
// Only sampled requests may allocate (they build an event chain), which
// the fourth case bounds separately for Lookup.
func TestXlateLookupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	newService := func() *xlate.Service {
		s, err := xlate.New(xlate.Config{Shards: 4, Entries: 256, Ways: 4})
		if err != nil {
			t.Fatal(err)
		}
		for v := units.VPN(0); v < 512; v++ {
			s.Insert(xlate.Key{PID: 1, VPN: v}, units.PFN(v))
		}
		return s
	}
	lookupAllocs := func(s *xlate.Service) int64 {
		i := 0
		return measureAllocs(1000, func() { s.Lookup(xlate.Key{PID: 1, VPN: units.VPN(i % 1024)}); i++ })
	}
	// The other three operations run on a service filled to four times
	// its capacity, so every shard is full and inserts evict: Insert
	// cycles over 4096 pages, and each batch is the next 64 of 8192
	// pages, looked up into a reused out slice or inserted.
	keys, pfns, out := make([]xlate.Key, 64), make([]units.PFN, 64), make([]xlate.Result, 64)
	nextBatch := func(i int) {
		for j := range keys {
			keys[j] = xlate.Key{PID: 1, VPN: units.VPN((i*len(keys) + j) % 8192)}
			pfns[j] = units.PFN(i)
		}
	}
	otherOps := []struct {
		name string
		op   func(s *xlate.Service, i int)
	}{
		{"Insert", func(s *xlate.Service, i int) { s.Insert(xlate.Key{PID: 1, VPN: units.VPN(i % 4096)}, units.PFN(i)) }},
		{"LookupMany", func(s *xlate.Service, i int) { nextBatch(i); out = s.LookupMany(keys, out) }},
		{"InsertMany", func(s *xlate.Service, i int) { nextBatch(i); s.InsertMany(keys, pfns) }},
	}
	// checkOtherOps fills s past its capacity and holds each of otherOps
	// to zero.
	checkOtherOps := func(state string, s *xlate.Service) {
		for v := units.VPN(512); v < 4096; v++ {
			s.Insert(xlate.Key{PID: 1, VPN: v}, units.PFN(v))
		}
		for _, w := range otherOps {
			i, evictions := 0, s.Stats().Total.Evictions
			got := testing.AllocsPerRun(1000, func() { w.op(s, i); i++ })
			evictions = s.Stats().Total.Evictions - evictions
			if got > 0 {
				t.Errorf("%s %s allocates %.2f/op, budget 0", state, w.name, got)
			} else {
				t.Logf("%s %s: %.2f allocs/op, %.1f evictions/op", state, w.name, got, float64(evictions)/float64(i))
			}
		}
	}
	// A wide window and a tiny manual-clock tick keep the ring from
	// rotating mid-measurement; rotation is rare and amortised, not part
	// of the per-op budget.
	newSink := func(sampleEvery int64) *telemetry.Sink {
		clk := telemetry.NewManualClock(0)
		clk.SetTick(1)
		sink, err := telemetry.New(telemetry.Config{
			Shards: 4, WindowNs: 1 << 62, Windows: 4,
			SampleEvery: sampleEvery, MaxTraces: 8,
			SLOTargetNs: 1_000_000, SLOBudget: 0.01,
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		return sink
	}

	disabled := newService()
	if got := lookupAllocs(disabled); got > 0 {
		t.Errorf("telemetry-disabled Lookup allocates %d/op, budget 0", got)
	}
	checkOtherOps("telemetry-disabled", disabled)

	unsampled := newService()
	if err := unsampled.AttachTelemetry(newSink(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if got := lookupAllocs(unsampled); got > 0 {
		t.Errorf("telemetry-enabled unsampled Lookup allocates %d/op, budget 0", got)
	}
	checkOtherOps("telemetry-enabled unsampled", unsampled)

	noSampling := newService()
	if err := noSampling.AttachTelemetry(newSink(0)); err != nil {
		t.Fatal(err)
	}
	if got := lookupAllocs(noSampling); got > 0 {
		t.Errorf("telemetry-enabled SampleEvery=0 Lookup allocates %d/op, budget 0", got)
	}
	checkOtherOps("telemetry-enabled SampleEvery=0", noSampling)

	// Sampling every request is the worst case: each lookup builds and
	// retains a trace chain. The chain is one Trace and one small event
	// slice; the budget leaves headroom but catches a per-key or
	// per-event allocation creeping in.
	sampled := newService()
	if err := sampled.AttachTelemetry(newSink(1)); err != nil {
		t.Fatal(err)
	}
	const sampledBudget = 8
	if got := lookupAllocs(sampled); got > sampledBudget {
		t.Errorf("always-sampled Lookup allocates %d/op, budget %d", got, sampledBudget)
	} else {
		t.Logf("always-sampled Lookup: %d allocs/op (budget %d)", got, sampledBudget)
	}
}

// TestGenerateCachedAllocBudget pins the memoised trace path at zero:
// after the first generation, GenerateCached is a read-locked typed-map
// hit with no interface boxing of the key and no per-call entry.
func TestGenerateCachedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	spec, err := utlb.WorkloadByName("water-spatial")
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.WorkloadConfig{Node: 0, FirstPID: 1, Seed: 424242, Scale: 0.05}
	warm := spec.GenerateCached(cfg)
	got := measureAllocs(1000, func() {
		if tr := spec.GenerateCached(cfg); len(tr) != len(warm) {
			t.Fatal("cache miss on warm key")
		}
	})
	if got > 0 {
		t.Errorf("GenerateCached allocates %d/op on the hit path, budget 0", got)
	} else {
		t.Logf("GenerateCached hit path: %d allocs/op", got)
	}
}

// recordedRun replays fft into an event buffer: the input of the
// exporter and analysis budgets below (about 275 events per 0.001 of
// scale).
func recordedRun(t *testing.T, scale float64) *utlb.EventBuffer {
	t.Helper()
	tr, err := utlb.GenerateTrace("fft", 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 1024
	buf := utlb.NewEventBuffer("budget/fft")
	cfg.Recorder = buf
	if _, err := utlb.SimulateWith(tr, cfg, utlb.NewSimScratch()); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSimulateRecordedAllocBudget bounds what attaching a buffer adds
// to a run on a warm scratch, in both timing modes: the buffer, its
// chunks and their list, and the transfer cursor — the events' own
// storage, once, and nothing else that grows with them. Under overlap
// the events also pass through the event.Sequencer and every DMA
// through the event kernel's queue, both of which the scratch keeps
// from run to run; unrecorded, such a run allocates what a sequential
// one does.
func TestSimulateRecordedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	fft, err := utlb.GenerateTrace("fft", 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	seq := utlb.DefaultSimConfig()
	seq.CacheEntries = 1024
	overlap := utlb.DefaultSimConfig()
	overlap.Prefetch, overlap.BatchPages = 8, 8
	overlap.Overlap.Enabled, overlap.Overlap.DMAChannels = true, 2
	const (
		eventBytes     = int64(unsafe.Sizeof(utlb.Event{}))
		unrecordedByte = 8 << 10 // measured 2.0 KB under overlap, 1.9 KB sequential
	)
	for _, c := range []struct {
		name   string
		tr     utlb.Trace
		cfg    utlb.SimConfig
		budget int64 // exact: 27 unrecorded + buffer + cursor + chunks + doublings of their list
	}{
		{"fft/sequential", fft, seq, 70},                                        // 69436 events: 34 chunks, 7 doublings
		{"bulk/overlap", utlb.GenerateBulkTrace(0, 1, 1998, 0.25), overlap, 48}, // 28341 events: 14 chunks, 5 doublings
	} {
		scr := utlb.NewSimScratch()
		events := int64(0)
		recorded := func() {
			buf := utlb.NewEventBuffer("budget")
			c.cfg.Recorder = buf
			if _, err := utlb.SimulateWith(c.tr, c.cfg, scr); err != nil {
				t.Fatal(err)
			}
			events = int64(buf.Len())
		}
		if got := measureAllocs(simRuns, recorded); got > c.budget {
			t.Errorf("%s: recorded SimulateWith allocates %d/op for %d events, budget %d", c.name, got, events, c.budget)
		} else {
			t.Logf("%s: recorded SimulateWith: %d allocs/op for %d events (budget %d)", c.name, got, events, c.budget)
		}
		byteBudget := uint64(events*eventBytes*11/10 + 16<<10)
		if got := bytesPerRun(simRuns, recorded); got > byteBudget {
			t.Errorf("%s: recorded SimulateWith allocates %d B/op for %d events of %d B, budget %d: something besides the buffer grows with the events",
				c.name, got, events, eventBytes, byteBudget)
		} else {
			t.Logf("%s: recorded SimulateWith: %d B/op, %.2f x the events' %d B (budget %d)", c.name, got, float64(got)/float64(events*eventBytes), events*eventBytes, byteBudget)
		}

		c.cfg.Recorder = nil
		unrecorded := func() {
			if _, err := utlb.SimulateWith(c.tr, c.cfg, scr); err != nil {
				t.Fatal(err)
			}
		}
		if got := bytesPerRun(simRuns, unrecorded); got > unrecordedByte {
			t.Errorf("%s: unrecorded SimulateWith allocates %d B/op with warm scratch, budget %d: the scratch-held engine is being rebuilt per run", c.name, got, unrecordedByte)
		} else {
			t.Logf("%s: unrecorded SimulateWith: %d B/op (budget %d)", c.name, got, unrecordedByte)
		}
	}
}

// TestSimulatePinLimitedAllocBudget is the eviction regime's budget:
// under a pin limit the library answers every quota rejection by
// evicting a victim and pinning again, tens of thousands of times a
// run, and the rejection itself — hostos.PinError, one per process,
// reused — must cost nothing (it was a formatted error once: 94k
// allocations a run).
func TestSimulatePinLimitedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	tr, err := utlb.GenerateTrace("fft", 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 1024
	cfg.PinLimitPages = 1024
	scr := utlb.NewSimScratch()
	var unpins int64
	got := measureAllocs(simRuns, func() {
		res, err := utlb.SimulateWith(tr, cfg, scr)
		if err != nil {
			t.Fatal(err)
		}
		unpins = res.Unpins
	})
	const budget = 32 // the unlimited run's 27 and a PinError for each of the five processes; measured 31-32
	if unpins < 10_000 {
		t.Fatalf("the run evicted %d pages: not the eviction regime", unpins)
	}
	if got > budget {
		t.Errorf("pin-limited SimulateWith allocates %d/op for %d evictions, budget %d", got, unpins, budget)
	} else {
		t.Logf("pin-limited SimulateWith: %d allocs/op for %d evictions (budget %d)", got, unpins, budget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average f
// allocates per call, after one call to warm up, on one P and with the
// collector off (so that a sync.Pool hands back what the previous call
// put). The runtime's own goroutines allocate a few dozen bytes now and
// then, so callers compare two results with sameBytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// sameBytes reports whether two bytesPerRun results differ by no more
// than the runtime's background noise: a cost per event would separate
// runs of 1k and 100k events by megabytes.
func sameBytes(a, b uint64) bool { return max(a, b)-min(a, b) <= 512 }

// TestWriteChromeTraceAllocsIndependentOfEvents: the exporter's
// allocations are the run's label and its track list's sort — the same
// small count, and the same few bytes, for a short run and for one a
// hundred times longer; its buffers come from a pool.
func TestWriteChromeTraceAllocsIndependentOfEvents(t *testing.T) {
	buf := recordedRun(t, 0.4)
	if buf.Len() < 100_000 {
		t.Fatalf("fixture has %d events, want at least 100k", buf.Len())
	}
	all := buf.Events()
	measure := func(events int) (allocs float64, bytes uint64) {
		runs := []utlb.EventRun{utlb.NewEventRun(buf.Label(), all[:events])}
		write := func() {
			if err := utlb.WriteChromeTrace(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, write), bytesPerRun(5, write)
	}
	small, smallBytes := measure(1_000)
	large, largeBytes := measure(100_000)
	const budget = 5 // measured 5
	if small != large || large > budget {
		t.Errorf("WriteChromeTrace allocates %v times at 1k events and %v at 100k; want equal and at most %d", small, large, budget)
	} else {
		t.Logf("WriteChromeTrace: %v allocs at 1k and at 100k events (budget %d)", large, budget)
	}
	if !sameBytes(smallBytes, largeBytes) || largeBytes > 1024 {
		t.Errorf("WriteChromeTrace allocates %d B at 1k events and %d B at 100k; want equal and at most 1 KB", smallBytes, largeBytes)
	} else {
		t.Logf("WriteChromeTrace: %d B at 1k and at 100k events", largeBytes)
	}
}

// TestAnalyzeAllocBudget: analysis allocates per experiment and per
// reported transfer — not per event, not per transfer and, its
// per-transfer table and per-kind digests being pooled, not per call:
// a hundred times the events cost the same bytes.
func TestAnalyzeAllocBudget(t *testing.T) {
	buf := recordedRun(t, 0.4)
	all := buf.Events()
	measure := func(events int) (allocs float64, bytes uint64) {
		runs := []utlb.EventRun{utlb.NewEventRun(buf.Label(), all[:events])}
		analyze := func() {
			if rep := utlb.AnalyzeEvents(runs, 10); rep.Events != int64(events) {
				t.Fatal("short report")
			}
		}
		return testing.AllocsPerRun(5, analyze), bytesPerRun(5, analyze)
	}
	small, smallBytes := measure(1_000)
	large, largeBytes := measure(100_000)
	const budget = 40 // measured 37
	if small != large || large > budget {
		t.Errorf("AnalyzeEvents allocates %v times at 1k events and %v at 100k; want equal and at most %d", small, large, budget)
	} else {
		t.Logf("AnalyzeEvents: %v allocs at 1k and at 100k events (budget %d)", large, budget)
	}
	if !sameBytes(smallBytes, largeBytes) {
		t.Errorf("AnalyzeEvents allocates %d B at 1k events and %d B at 100k; want equal", smallBytes, largeBytes)
	} else {
		t.Logf("AnalyzeEvents: %d B at 1k and at 100k events", largeBytes)
	}
}
