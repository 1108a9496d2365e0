package xlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

func key(pid, vpn int) Key {
	return Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)}
}

func TestConfigValidate(t *testing.T) {
	for _, good := range []Config{
		{Shards: 4, Entries: 64, Ways: 2, IndexOffset: true},
		{Shards: maxShards, Entries: 64, Ways: 2},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero shards", Config{Shards: 0, Entries: 64, Ways: 2}},
		{"negative shards", Config{Shards: -2, Entries: 64, Ways: 2}},
		{"non-power-of-two shards", Config{Shards: 3, Entries: 64, Ways: 2}},
		{"six shards", Config{Shards: 6, Entries: 64, Ways: 2}},
		{"over the shard bound", Config{Shards: 2 * maxShards, Entries: 64, Ways: 2}},
		{"bad entries", Config{Shards: 4, Entries: 48, Ways: 2}},
		{"bad ways", Config{Shards: 4, Entries: 64, Ways: 3}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
}

// A one-shard service is today's behaviour: every operation returns
// exactly what a bare tlbcache.Cache returns, and the final stats are
// byte-identical to the cache's own counters.
func TestOneShardDegeneratesToBareCache(t *testing.T) {
	cfg := Config{Shards: 1, Entries: 64, Ways: 4, IndexOffset: true}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare := tlbcache.New(tlbcache.Config{Entries: 64, Ways: 4, IndexOffset: true})

	rng := rand.New(rand.NewSource(1998))
	for i := 0; i < 5000; i++ {
		k := key(1+rng.Intn(6), rng.Intn(300))
		switch rng.Intn(10) {
		case 0, 1, 2:
			e1, w1 := svc.Insert(k, SyntheticPFN(k))
			e2, w2 := bare.Insert(k, SyntheticPFN(k))
			if e1 != e2 || w1 != w2 {
				t.Fatalf("op %d: Insert diverged: (%v,%v) vs (%v,%v)", i, e1, w1, e2, w2)
			}
		case 3:
			if g, w := svc.Invalidate(k), bare.Invalidate(k); g != w {
				t.Fatalf("op %d: Invalidate diverged: %v vs %v", i, g, w)
			}
		case 4:
			pid := units.ProcID(1 + rng.Intn(6))
			if g, w := svc.InvalidateProcess(pid), bare.InvalidateProcess(pid); g != w {
				t.Fatalf("op %d: InvalidateProcess diverged: %d vs %d", i, g, w)
			}
		default:
			if g, w := svc.Lookup(k), bare.Lookup(k); g != w {
				t.Fatalf("op %d: Lookup diverged: %+v vs %+v", i, g, w)
			}
		}
	}

	st := svc.Stats()
	cs := bare.Stats()
	want := Counters{Lookups: cs.Hits + cs.Misses, Stats: cs, Occupancy: int64(bare.Occupancy())}
	if got := fmt.Sprintf("%+v", st.Total); got != fmt.Sprintf("%+v", want) {
		t.Fatalf("one-shard totals diverged from bare cache:\n got %s\nwant %+v", got, want)
	}
	if len(st.PerShard) != 1 || st.PerShard[0].Counters != want {
		t.Fatalf("per-shard stats: %+v", st.PerShard)
	}
}

// inShardOrder returns the indices of keys in the order the batch
// operations visit them: shard by shard in index order, and within a
// shard in batch order.
func inShardOrder(s *Service, keys []Key) []int {
	var order []int
	for si := 0; si < s.cfg.Shards; si++ {
		for i, k := range keys {
			if s.shardIndex(k) == si {
				order = append(order, i)
			}
		}
	}
	return order
}

// LookupMany and InsertMany must do, position for position, what
// single Lookups and Inserts do on an equal service fed equal history
// in the order inShardOrder gives — including LRU motion, evictions,
// and which of two inserts of one key lands last (the later in batch
// order). Batch lengths straddle 64 and reach serve's limit of 4096;
// every batch longer than one names some key twice. A ticking clock
// shows each shard locked at most once per call: a batch reads the
// clock once, plus once per shard it touches.
func TestLookupManyMatchesSingleLookups(t *testing.T) {
	mk := func() *Service {
		svc, err := New(Config{Shards: 8, Entries: 32, Ways: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 600; i++ {
			k := key(1+rng.Intn(4), rng.Intn(200))
			svc.Insert(k, SyntheticPFN(k))
		}
		return svc
	}
	a, b := mk(), mk()
	clk := telemetry.NewManualClock(0)
	clk.SetTick(1)
	sink, err := telemetry.New(telemetry.DefaultConfig(8), clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTelemetry(sink); err != nil {
		t.Fatal(err)
	}
	clockReads := func(op func()) int64 {
		before := clk.Now()
		op()
		return clk.Now() - before - 1
	}
	touched := func(keys []Key) int64 {
		seen := map[int]bool{}
		for _, k := range keys {
			seen[a.shardIndex(k)] = true
		}
		return int64(1 + len(seen))
	}

	rng := rand.New(rand.NewSource(42))
	batch := func(n int) []Key {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = key(1+rng.Intn(4), rng.Intn(200))
		}
		if n > 1 {
			keys[n-1] = keys[0]
		}
		return keys
	}
	var out []Result
	for _, n := range []int{0, 1, 63, 64, 65, 4096} {
		for rep := 0; rep < 4; rep++ {
			keys := batch(n)
			pfns := make([]units.PFN, n)
			for i := range pfns {
				pfns[i] = units.PFN(1 + rng.Intn(1<<30))
			}
			var evA int
			if got, want := clockReads(func() { evA = a.InsertMany(keys, pfns) }), touched(keys); got != want {
				t.Fatalf("InsertMany(%d): %d clock reads, want %d", n, got, want)
			}
			evB := 0
			for _, i := range inShardOrder(b, keys) {
				if _, e := b.Insert(keys[i], pfns[i]); e {
					evB++
				}
			}
			if evA != evB {
				t.Fatalf("InsertMany(%d): %d evictions, singles %d", n, evA, evB)
			}
			if n > 1 {
				last := n - 1
				ra, rb := a.Lookup(keys[0]), b.Lookup(keys[0])
				if ra != rb || (ra.Hit && ra.PFN != pfns[last]) {
					t.Fatalf("InsertMany(%d): key %v inserted at 0 and %d reads %+v (singles %+v), want frame %d",
						n, keys[0], last, ra, rb, pfns[last])
				}
			}

			keys = batch(n)
			if got, want := clockReads(func() { out = a.LookupMany(keys, out) }), touched(keys); got != want {
				t.Fatalf("LookupMany(%d): %d clock reads, want %d", n, got, want)
			}
			if len(out) != n {
				t.Fatalf("LookupMany(%d): %d results", n, len(out))
			}
			want := make([]Result, n)
			for _, i := range inShardOrder(b, keys) {
				want[i] = b.Lookup(keys[i])
			}
			for i := range keys {
				if out[i] != want[i] {
					t.Fatalf("LookupMany(%d) key %d (%v): %+v != %+v", n, i, keys[i], out[i], want[i])
				}
			}
		}
	}
	if fmt.Sprintf("%+v", a.Stats()) != fmt.Sprintf("%+v", b.Stats()) {
		t.Fatal("stats diverged between batched and single operations")
	}
}

func TestInsertManyAndInvalidateProcess(t *testing.T) {
	svc, err := New(Config{Shards: 4, Entries: 256, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	keys := make([]Key, n)
	pfns := make([]units.PFN, n)
	for i := range keys {
		keys[i] = key(1+i%3, i)
		pfns[i] = SyntheticPFN(keys[i])
	}
	if ev := svc.InsertMany(keys, pfns); ev != 0 {
		t.Fatalf("insert into empty oversized service evicted %d", ev)
	}
	out := svc.LookupMany(keys, nil)
	for i, r := range out {
		if !r.Hit || r.PFN != pfns[i] {
			t.Fatalf("key %d: %+v, want hit pfn %d", i, r, pfns[i])
		}
	}
	dropped := svc.InvalidateProcess(1)
	want := 0
	for i := range keys {
		if keys[i].PID == 1 {
			want++
		}
	}
	if dropped != want {
		t.Fatalf("InvalidateProcess dropped %d, want %d", dropped, want)
	}
	for i := range keys {
		r := svc.Lookup(keys[i])
		if (keys[i].PID == 1) == r.Hit {
			t.Fatalf("key %+v after process invalidate: hit=%v", keys[i], r.Hit)
		}
	}
}

func TestInsertManyLengthMismatchPanics(t *testing.T) {
	svc, err := New(Config{Shards: 2, Entries: 16, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	svc.InsertMany(make([]Key, 2), make([]units.PFN, 3))
}

func TestSyntheticPFN(t *testing.T) {
	seen := map[units.PFN]Key{}
	for pid := 1; pid < 40; pid++ {
		for vpn := 0; vpn < 200; vpn++ {
			k := key(pid, vpn)
			p := SyntheticPFN(k)
			if p == units.NoPFN {
				t.Fatalf("SyntheticPFN(%v) = NoPFN", k)
			}
			if prev, dup := seen[p]; dup {
				t.Fatalf("SyntheticPFN collision: %v and %v -> %d", prev, k, p)
			}
			seen[p] = k
		}
	}
	if SyntheticPFN(key(3, 17)) != SyntheticPFN(key(3, 17)) {
		t.Fatal("SyntheticPFN not deterministic")
	}
}

// Shard routing must actually spread load: over a uniform key space,
// no shard should see more than twice the mean.
func TestShardBalance(t *testing.T) {
	svc, err := New(Config{Shards: 16, Entries: 16, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	for pid := 1; pid <= 8; pid++ {
		for vpn := 0; vpn < 4096; vpn++ {
			counts[svc.shardIndex(key(pid, vpn))]++
		}
	}
	total := 8 * 4096
	mean := total / 16
	for i, c := range counts {
		if c > 2*mean || c < mean/2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %d): hash is not spreading", i, c, total, mean)
		}
	}
}

func TestStatsTotalsAreShardSums(t *testing.T) {
	svc, err := New(Config{Shards: 8, Entries: 32, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		k := key(1+rng.Intn(5), rng.Intn(400))
		if rng.Intn(3) == 0 {
			svc.Insert(k, SyntheticPFN(k))
		} else {
			svc.Lookup(k)
		}
	}
	st := svc.Stats()
	var sum Counters
	for _, sh := range st.PerShard {
		sum.add(sh.Counters)
	}
	if !reflect.DeepEqual(sum, st.Total) {
		t.Fatalf("Total %+v != shard sum %+v", st.Total, sum)
	}
	if st.Total.Lookups != st.Total.Hits+st.Total.Misses {
		t.Fatalf("Lookups %d != Hits %d + Misses %d", st.Total.Lookups, st.Total.Hits, st.Total.Misses)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	svc, err := New(Config{Shards: 2, Entries: 16, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := key(1, 5)
	svc.Insert(k, SyntheticPFN(k))
	svc.Lookup(k)
	svc.Lookup(key(1, 6))

	var a, b strings.Builder
	if err := WritePrometheus(&a, svc.Stats()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, svc.Stats()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Prometheus output not byte-deterministic")
	}
	for _, want := range []string{
		`utlb_xlate_lookups_total{shard="all"} 2`,
		`utlb_xlate_hits_total{shard="all"} 1`,
		`utlb_xlate_misses_total{shard="all"} 1`,
		`utlb_xlate_fills_total{shard="all"} 1`,
		`utlb_xlate_occupancy{shard="all"} 1`,
		`utlb_xlate_lookups_total{shard="0"}`,
		`utlb_xlate_lookups_total{shard="1"}`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, a.String())
		}
	}
}
