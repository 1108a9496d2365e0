package xlate

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"utlb/internal/telemetry"
	"utlb/internal/units"
	"utlb/internal/workload"
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
		SampleEvery: 1,
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
	// A sink reads one service's counts.
	_, sink, _ = newTelService(t)
	if err := svc.AttachTelemetry(sink); err == nil || svc.Telemetry() != nil {
		t.Errorf("AttachTelemetry accepted a sink already attached to another service (err %v)", err)
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

// TestCountsLandInTheRequestsWindow: a request folds the window ring
// at its start, before its shard operations count, so a request that
// begins after a window boundary has its counts in the new window and
// the closed window holds exactly the counts made before it.
func TestCountsLandInTheRequestsWindow(t *testing.T) {
	svc, sink, clk := newTelService(t)
	keys := make([]Key, 64)
	pfns := make([]units.PFN, 64)
	for i := range keys {
		keys[i] = Key{PID: 1, VPN: units.VPN(i)}
		pfns[i] = SyntheticPFN(keys[i])
	}
	svc.InsertMany(keys, pfns)
	svc.LookupMany(keys, nil)
	before := svc.Stats().Total

	clk.Set(1_500_000) // window 1; nothing has folded yet
	svc.LookupMany(keys[:16], nil)
	svc.Invalidate(keys[0]) // no request: counted in the open window
	after := svc.Stats().Total

	sr := sink.SeriesReport(clk.Now())
	if len(sr.Points) != 2 || sr.Points[0].Window != 0 || !sr.Points[1].Open {
		t.Fatalf("series = %+v, want closed window 0 and open window 1", sr.Points)
	}
	w0, w1 := sr.Points[0], sr.Points[1]
	if w0.Lookups != before.Lookups || w0.Hits != before.Hits || w0.Inserts != before.Fills || w0.Invalidations != 0 {
		t.Errorf("window 0 = %+v, want the counts before the boundary %+v", w0.Totals, before)
	}
	if w1.Lookups != 16 || w1.Hits != after.Hits-before.Hits || w1.Inserts != 0 || w1.Invalidations != 1 {
		t.Errorf("window 1 = %+v, want the 16 lookups and one invalidation after the boundary", w1.Totals)
	}
}

// TestTelemetryReadersDuringTraffic holds the lock order under the race
// detector: the sink's readers take Sink.mu and then each shard lock
// while batched lookups, inserts and process exits run, with windows
// rotating under load, and at quiescence the sink's counts are the
// service's.
func TestTelemetryReadersDuringTraffic(t *testing.T) {
	svc, err := New(Config{Shards: 4, Entries: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk := telemetry.NewManualClock(0)
	clk.SetTick(50) // a window every 200 clock reads
	sink, err := telemetry.New(telemetry.Config{
		Shards: 4, WindowNs: 10_000, Windows: 8,
		SampleEvery: 3,
		SLOTargetNs: 1_000, SLOBudget: 0.1,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachTelemetry(sink); err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			keys, pfns := make([]Key, 64), make([]units.PFN, 64)
			var out []Result
			for i := 0; i < 300; i++ {
				for j := range keys {
					keys[j] = key(1+rng.Intn(3), rng.Intn(400))
					pfns[j] = SyntheticPFN(keys[j])
				}
				out = svc.LookupMany(keys, out)
				svc.InsertMany(keys, pfns)
				if i%50 == 49 {
					svc.InvalidateProcess(units.ProcID(1 + rng.Intn(3)))
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			now := sink.Now()
			sink.SeriesReport(now)
			sink.ShardSnapshots(now)
			if err := sink.WritePrometheus(io.Discard, now); err != nil {
				t.Error(err)
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()

	st, tot := svc.Stats().Total, sink.TotalsSnapshot()
	want := telemetry.Totals{Lookups: st.Lookups, Hits: st.Hits, Misses: st.Misses, Inserts: st.Fills,
		Evictions: st.Evictions, Invalidations: st.Invalidations, Ops: tot.Ops, Slow: tot.Slow, SumNs: tot.SumNs}
	if tot != want || st.Lookups != 2*300*64 {
		t.Errorf("sink totals %+v, service %+v (want %d lookups)", tot, st, 2*300*64)
	}
}

// BenchmarkLookupManyTelemetry times LookupMany of 64 keys, all hits,
// on the default service geometry with the sink off and attached the
// way serve attaches it (default config, wall clock), from 1 and 2
// goroutines. ns/key is wall time over all keys looked up, so perfect
// scaling halves it at g=2.
func BenchmarkLookupManyTelemetry(b *testing.B) {
	rng := rand.New(rand.NewSource(1998))
	batches := make([][]Key, 256)
	for i := range batches {
		batches[i] = make([]Key, 64)
		for j := range batches[i] {
			batches[i][j] = key(1+rng.Intn(4), rng.Intn(2048))
		}
	}
	for _, on := range []bool{false, true} {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("sink=%v/g=%d", on, g), func(b *testing.B) {
				svc, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if on {
					sink, err := telemetry.New(telemetry.DefaultConfig(svc.Config().Shards), telemetry.WallClock{})
					if err != nil {
						b.Fatal(err)
					}
					if err := svc.AttachTelemetry(sink); err != nil {
						b.Fatal(err)
					}
				}
				for pid := 1; pid <= 4; pid++ {
					for vpn := 0; vpn < 2048; vpn++ {
						svc.Insert(key(pid, vpn), SyntheticPFN(key(pid, vpn)))
					}
				}
				per := (b.N + g - 1) / g
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < g; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						out := make([]Result, 64)
						for i := 0; i < per; i++ {
							out = svc.LookupMany(batches[(c*128+i)%len(batches)], out)
						}
					}(c)
				}
				wg.Wait()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(g*per*64), "ns/key")
			})
		}
	}
}

// BenchmarkLookupManyZipf is the benchmark's svc_inproc_lookup stream
// under go test: every page of a 4096-page universe striped over four
// processes is installed, then each goroutine looks up 64-key batches
// of its own zipf(1.3) draw over it, with the sink attached the way
// serve attaches it. Almost every hit lands on its set's MRU line, so
// this is the read path; BenchmarkLookupManyTelemetry's uniform keys
// restamp about one lookup in twelve. ns/key is wall time over all
// keys looked up. `make profile-svc` profiles g=2.
func BenchmarkLookupManyZipf(b *testing.B) {
	const pages, batches = 4096, 4096
	keyOf := func(page int) Key { return key(1+page%4, page) }
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			svc, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			sink, err := telemetry.New(telemetry.DefaultConfig(svc.Config().Shards), telemetry.WallClock{})
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.AttachTelemetry(sink); err != nil {
				b.Fatal(err)
			}
			for p := 0; p < pages; p++ {
				svc.Insert(keyOf(p), SyntheticPFN(keyOf(p)))
			}
			streams := make([][]Key, g)
			for c := range streams {
				for _, p := range workload.ZipfPages(1998*8+int64(c), pages, batches*64, 1.3) {
					streams[c] = append(streams[c], keyOf(p))
				}
			}
			per := (b.N + g - 1) / g
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := range streams {
				wg.Add(1)
				go func(keys []Key) {
					defer wg.Done()
					out := make([]Result, 64)
					for i := 0; i < per; i++ {
						lo := i % batches * 64
						out = svc.LookupMany(keys[lo:lo+64], out)
					}
				}(streams[c])
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(g*per*64), "ns/key")
		})
	}
}

// BenchmarkLookupFillMixed is the miss-to-fill step of the benchmark's
// svc_inproc_mixed workload under b.RunParallel: each goroutine looks
// up 64 keys of its own process, drawn uniformly from twice the
// default service's capacity, then inserts the ones that missed. The
// sink is attached the way serve attaches it, and the table is filled
// before the timer starts, so timed steps see steady-state misses and
// evictions. ns/key is wall time over all keys looked up. `make
// profile-svc` writes its CPU profile.
func BenchmarkLookupFillMixed(b *testing.B) {
	svc, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sink, err := telemetry.New(telemetry.DefaultConfig(svc.Config().Shards), telemetry.WallClock{})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.AttachTelemetry(sink); err != nil {
		b.Fatal(err)
	}
	pages := 2 * svc.Config().Shards * svc.Config().Entries
	step := func(rng *rand.Rand, pid int, keys, missK []Key, out []Result, missP []units.PFN) ([]Result, []Key, []units.PFN) {
		for i := range keys {
			keys[i] = key(pid, rng.Intn(pages))
		}
		out = svc.LookupMany(keys, out)
		missK, missP = missK[:0], missP[:0]
		for i, r := range out {
			if !r.Hit {
				missK = append(missK, keys[i])
				missP = append(missP, SyntheticPFN(keys[i]))
			}
		}
		svc.InsertMany(missK, missP)
		return out, missK, missP
	}
	keys := make([]Key, 64)
	rng := rand.New(rand.NewSource(1998))
	var out []Result
	var missK []Key
	var missP []units.PFN
	for i := 0; i < 2*pages/len(keys); i++ {
		out, missK, missP = step(rng, 1+i%2, keys, missK, out, missP)
	}
	var pids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1))
		rng := rand.New(rand.NewSource(int64(pid)))
		keys := make([]Key, 64)
		var out []Result
		var missK []Key
		var missP []units.PFN
		for pb.Next() {
			out, missK, missP = step(rng, pid, keys, missK, out, missP)
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
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
