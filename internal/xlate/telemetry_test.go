package xlate

import (
	"testing"

	"utlb/internal/telemetry"
	"utlb/internal/units"
)

func newTelService(t *testing.T) (*Service, *telemetry.Sink, *telemetry.ManualClock) {
	t.Helper()
	svc, err := New(Config{Shards: 4, Entries: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk := telemetry.NewManualClock(0)
	clk.SetTick(10)
	sink, err := telemetry.New(telemetry.Config{
		Shards: 4, WindowNs: 1_000_000, Windows: 8,
		SampleEvery: 1, MaxTraces: 16,
		SLOTargetNs: 1_000_000, SLOBudget: 0.01,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachTelemetry(sink); err != nil {
		t.Fatal(err)
	}
	return svc, sink, clk
}

func TestAttachTelemetryValidates(t *testing.T) {
	svc, err := New(Config{Shards: 4, Entries: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachTelemetry(nil); err == nil {
		t.Error("AttachTelemetry accepted a nil sink")
	}
	sink, err := telemetry.New(telemetry.DefaultConfig(8), telemetry.NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachTelemetry(sink); err == nil {
		t.Error("AttachTelemetry accepted a shard-count mismatch (8 vs 4)")
	}
	if svc.Telemetry() != nil {
		t.Error("failed attach left a sink installed")
	}
}

// TestTelemetryMirrorsStats drives the service through every batched
// and single-key operation and checks the sink's cumulative counters
// agree with the service's own lock-protected Stats — two independent
// accounting paths over one operation multiset.
func TestTelemetryMirrorsStats(t *testing.T) {
	svc, sink, _ := newTelService(t)

	keys := make([]Key, 200)
	pfns := make([]units.PFN, 200)
	for i := range keys {
		keys[i] = Key{PID: units.ProcID(i % 3), VPN: units.VPN(i * 17)}
		pfns[i] = SyntheticPFN(keys[i])
	}
	svc.InsertMany(keys, pfns)
	out := svc.LookupMany(keys, nil)
	resident := 0
	for i, r := range out {
		if r.Hit {
			resident++
			if r.PFN != pfns[i] {
				t.Fatalf("key %d: hit with pfn %d, want %d", i, r.PFN, pfns[i])
			}
		}
	}
	if resident == 0 {
		t.Fatal("no key survived the insert batch")
	}
	svc.Lookup(Key{PID: 99, VPN: 1}) // miss
	svc.Insert(Key{PID: 99, VPN: 1}, 42)
	svc.Invalidate(Key{PID: 99, VPN: 1})
	svc.InvalidateProcess(0)

	st := svc.Stats()
	tot := sink.TotalsSnapshot()
	if tot.Lookups != st.Total.Lookups {
		t.Errorf("sink lookups %d != stats %d", tot.Lookups, st.Total.Lookups)
	}
	if tot.Hits != st.Total.Hits || tot.Misses != st.Total.Misses {
		t.Errorf("sink hits/misses %d/%d != stats %d/%d",
			tot.Hits, tot.Misses, st.Total.Hits, st.Total.Misses)
	}
	if tot.Inserts != st.Total.Fills {
		t.Errorf("sink inserts %d != stats fills %d", tot.Inserts, st.Total.Fills)
	}
	if tot.Evictions != st.Total.Evictions {
		t.Errorf("sink evictions %d != stats %d", tot.Evictions, st.Total.Evictions)
	}
	if tot.Invalidations != st.Total.Invalidations {
		t.Errorf("sink invalidations %d != stats %d", tot.Invalidations, st.Total.Invalidations)
	}
	if tot.Ops == 0 || tot.SumNs == 0 {
		t.Errorf("no timed ops recorded: %+v", tot)
	}
}

// TestTelemetryTracesBatches checks a sampled batched lookup retains
// one chain whose shard segments cover exactly the batch.
func TestTelemetryTracesBatches(t *testing.T) {
	svc, sink, _ := newTelService(t)
	keys := make([]Key, 64)
	pfns := make([]units.PFN, 64)
	for i := range keys {
		keys[i] = Key{PID: 1, VPN: units.VPN(i)}
		pfns[i] = SyntheticPFN(keys[i])
	}
	svc.InsertMany(keys, pfns) // request 1, sampled (SampleEvery=1)
	svc.LookupMany(keys, nil)  // request 2, sampled
	runs := sink.TraceRuns()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	// The clock ticks 10 ns a read and is read at Begin and at each
	// segment's end, so every segment is one tick and a request's span
	// is exactly the sum of its segments.
	var reqSpans, segKeys int
	var segNs units.Time
	for _, ev := range runs[0].Chunks()[0] {
		switch ev.Kind.String() {
		case "xlate_req":
			reqSpans++
			if ev.Arg != 64 {
				t.Errorf("request span covers %d keys, want 64", ev.Arg)
			}
			if ev.Dur != segNs || ev.Dur == 0 {
				t.Errorf("request span of %d ns, its segments sum to %d ns", ev.Dur, segNs)
			}
			segNs = 0
		case "xlate_shard":
			segKeys += int(ev.Arg2)
			segNs += ev.Dur
			if ev.Dur != 10 {
				t.Errorf("segment of %d ns, want one 10 ns tick", ev.Dur)
			}
		}
	}
	if reqSpans != 2 {
		t.Errorf("got %d request spans, want 2", reqSpans)
	}
	if segKeys != 128 {
		t.Errorf("shard segments cover %d keys total, want 128 (two 64-key batches)", segKeys)
	}
	if got := sink.SampledTraces(); got != 2 {
		t.Errorf("SampledTraces = %d, want 2", got)
	}
}

func TestStatsOccupancy(t *testing.T) {
	svc, err := New(Config{Shards: 2, Entries: 16, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Capacity != 32 {
		t.Errorf("total capacity = %d, want 32", st.Capacity)
	}
	for _, sh := range st.PerShard {
		if sh.Capacity != 16 || sh.OccupancyPermille != 0 {
			t.Errorf("empty shard %d: %+v, want capacity 16 at 0‰", sh.Shard, sh)
		}
	}
	// Fill with distinct keys until every shard holds something.
	for i := 0; i < 64; i++ {
		k := Key{PID: 1, VPN: units.VPN(i)}
		svc.Insert(k, SyntheticPFN(k))
	}
	st = svc.Stats()
	for _, sh := range st.PerShard {
		want := sh.Occupancy * 1000 / sh.Capacity
		if sh.OccupancyPermille != want {
			t.Errorf("shard %d occupancy %d/%d reported %d‰, want %d‰",
				sh.Shard, sh.Occupancy, sh.Capacity, sh.OccupancyPermille, want)
		}
		if sh.Occupancy > 0 && sh.OccupancyPermille == 0 && sh.Occupancy*1000 >= sh.Capacity {
			t.Errorf("shard %d: nonzero occupancy rounded to 0‰ unexpectedly", sh.Shard)
		}
	}
}
