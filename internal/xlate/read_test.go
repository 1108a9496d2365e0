package xlate

import (
	"encoding/json"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"utlb/internal/units"
)

// fillBoth installs the same keys, some of them evicting, into every
// service given, and returns a lookup stream over a wider key space.
func fillBoth(t *testing.T, svcs ...*Service) []Key {
	t.Helper()
	rng := rand.New(rand.NewSource(1998))
	for i := 0; i < 300; i++ {
		k := key(1+rng.Intn(3), rng.Intn(100))
		for _, s := range svcs {
			s.Insert(k, SyntheticPFN(k))
		}
	}
	stream := make([]Key, 4096)
	for i := range stream {
		stream[i] = key(1+rng.Intn(3), rng.Intn(120))
	}
	return stream
}

// TestLookupManyWithEverySlotBusy: with every reader slot claimed,
// LookupMany takes the locked path and still answers and counts
// exactly what single Lookups on a twin service do.
func TestLookupManyWithEverySlotBusy(t *testing.T) {
	cfg := Config{Shards: 4, Entries: 64, Ways: 2, IndexOffset: true}
	busy, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := fillBoth(t, busy, twin)
	var claimed []*slot
	for sl := busy.claim(); sl != nil; sl = busy.claim() {
		claimed = append(claimed, sl)
	}
	if len(claimed) != len(busy.slots) {
		t.Fatalf("claimed %d slots of %d", len(claimed), len(busy.slots))
	}
	var out []Result
	for lo := 0; lo < len(stream); lo += 64 {
		batch := stream[lo : lo+64]
		out = busy.LookupMany(batch, out)
		for i, k := range batch {
			if want := twin.Lookup(k); out[i] != want {
				t.Fatalf("key %d of batch %d: %+v with every slot busy, %+v from Lookup", i, lo/64, out[i], want)
			}
		}
	}
	if lockFree, _ := pathCounts(busy); lockFree != 0 {
		t.Errorf("%d lookups answered without the lock while every slot was claimed", lockFree)
	}
	for _, sl := range claimed {
		sl.claim.Unlock()
	}
	got, _ := json.Marshal(busy.Stats())
	want, _ := json.Marshal(twin.Stats())
	if string(got) != string(want) {
		t.Errorf("stats with every slot busy:\n%s\nfrom single Lookups:\n%s", got, want)
	}
}

// TestMRUStreamLeavesWriteSequence: lookups that all hit their set's
// MRU line write nothing, so two clients running them, and a Stats
// read, must leave every shard's write sequence where it was. A locked
// visit that advanced it without writing would send the other client
// back to the lock, and the two would keep each other there.
func TestMRUStreamLeavesWriteSequence(t *testing.T) {
	svc, err := New(Config{Shards: 8, Entries: 256, Ways: 4, IndexOffset: true})
	if err != nil {
		t.Fatal(err)
	}
	var mru []Key
	for vpn := 0; vpn < 1024; vpn++ {
		svc.Insert(key(1+vpn%4, vpn), units.PFN(vpn))
	}
	for vpn := 0; vpn < 1024; vpn++ {
		k := key(1+vpn%4, vpn)
		if r, pure := svc.shards[svc.shardIndex(k)].cache.Probe(k); r.Hit && pure {
			mru = append(mru, k)
		}
	}
	before := make([]uint64, len(svc.shards))
	for i := range svc.shards {
		before[i] = svc.shards[i].state.Load()
	}
	const rounds = 200
	splitWork(2, 2, func(lo, hi int) {
		rng := rand.New(rand.NewSource(int64(lo)))
		batch := make([]Key, 64)
		var out []Result
		for r := 0; r < rounds; r++ {
			for i := range batch {
				batch[i] = mru[rng.Intn(len(mru))]
			}
			out = svc.LookupMany(batch, out)
			for _, res := range out {
				if !res.Hit {
					t.Error("an MRU key missed")
					return
				}
			}
		}
	})
	st := svc.Stats()
	for i := range svc.shards {
		if got := svc.shards[i].state.Load(); got != before[i] {
			t.Errorf("shard %d: state %d after an MRU-only stream, %d before", i, got, before[i])
		}
	}
	if want := int64(2 * rounds * 64); st.Total.Lookups != want || st.Total.Hits != want {
		t.Errorf("stats count %d lookups, %d hits; want %d of each", st.Total.Lookups, st.Total.Hits, want)
	}
}

// TestWriterWaitsForReaders: a writer must not touch a shard while a
// slot's reader is on it. The reader is simulated by its presence
// word; the writer may finish only once it drops.
func TestWriterWaitsForReaders(t *testing.T) {
	svc, err := New(Config{Shards: 2, Entries: 16, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := key(1, 3)
	si := svc.shardIndex(k)
	sl := svc.claim()
	sl.rec[si].presence.Store(1)
	var done atomic.Bool
	finished := make(chan struct{})
	go func() {
		svc.Insert(k, 7)
		done.Store(true)
		close(finished)
	}()
	time.Sleep(20 * time.Millisecond)
	if done.Load() {
		t.Fatal("Insert finished while a reader was present on its shard")
	}
	sl.rec[si].presence.Store(0)
	<-finished
	sl.claim.Unlock()
	if r := svc.Lookup(k); !r.Hit || r.PFN != 7 {
		t.Errorf("after the reader left, Lookup = %+v, want a hit on 7", r)
	}
}

// TestReadersNeverSeeHalfAWrite: a writer removes a key and puts it
// back inside one write, so a reader that follows the protocol always
// hits it. Readers run lock-free between the writes (the writer pauses
// between them); a reader that read while the write was in progress
// would see the key missing.
func TestReadersNeverSeeHalfAWrite(t *testing.T) {
	svc, err := New(Config{Shards: 1, Entries: 16, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := key(1, 0)
	svc.Insert(k, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh := &svc.shards[0]
		for i := 0; !stop.Load(); i++ {
			sh.mu.Lock()
			svc.raise(0, 2)
			sh.cache.Invalidate(k)
			sh.cache.Insert(k, 1)
			sh.mu.Unlock()
			for spin := 0; spin < i%256; spin++ {
				sh.state.Load()
			}
		}
	}()
	keys, out := []Key{k, k}, make([]Result, 2)
	deadline := time.Now().Add(200 * time.Millisecond)
	for n := 0; time.Now().Before(deadline); n++ {
		out = svc.LookupMany(keys, out)
		if !out[0].Hit || !out[1].Hit {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("lookup %d read the shard in the middle of a write: %+v", n, out)
		}
	}
	stop.Store(true)
	wg.Wait()
	if lockFree, _ := pathCounts(svc); lockFree == 0 {
		t.Error("no lookup was answered without the lock; the test checked only the locked path")
	}
}
