package tlbcache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"utlb/internal/units"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Entries: 1024, Ways: 1},
		{Entries: 2048, Ways: 2, IndexOffset: true},
		{Entries: 8192, Ways: 4},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{Entries: 0, Ways: 1},
		{Entries: 1000, Ways: 1}, // not a power of two
		{Entries: 1024, Ways: 3},
		{Entries: -4, Ways: 1},
		{Entries: 1024, Ways: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Entries: 3, Ways: 1})
}

func TestLookupInsert(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 1})
	k := Key{PID: 1, VPN: 0x42}
	if r := c.Lookup(k); r.Hit {
		t.Error("hit in empty cache")
	}
	c.Insert(k, 7)
	r := c.Lookup(k)
	if !r.Hit || r.PFN != 7 || r.Probes != 1 {
		t.Errorf("Lookup = %+v", r)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 2})
	k := Key{PID: 1, VPN: 5}
	c.Insert(k, 10)
	if _, ev := c.Insert(k, 11); ev {
		t.Error("update evicted something")
	}
	if r := c.Lookup(k); r.PFN != 11 {
		t.Errorf("PFN = %d, want 11", r.PFN)
	}
	if c.Occupancy() != 1 {
		t.Errorf("Occupancy = %d", c.Occupancy())
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 1})
	a := Key{PID: 1, VPN: 0}
	b := Key{PID: 1, VPN: 16} // same set in a 16-set direct-mapped cache
	c.Insert(a, 1)
	evicted, was := c.Insert(b, 2)
	if !was || evicted != a {
		t.Errorf("evicted = %+v (%v), want %+v", evicted, was, a)
	}
	if r := c.Lookup(a); r.Hit {
		t.Error("conflicting entry survived")
	}
}

func TestTwoWayHoldsConflictPair(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 2})
	a := Key{PID: 1, VPN: 0}
	b := Key{PID: 1, VPN: 8} // 8 sets: vpn 0 and 8 collide
	c.Insert(a, 1)
	if _, was := c.Insert(b, 2); was {
		t.Error("2-way evicted with a free way")
	}
	if !c.Lookup(a).Hit || !c.Lookup(b).Hit {
		t.Error("both conflicting keys should hit in a 2-way cache")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(Config{Entries: 4, Ways: 2}) // 2 sets
	a := Key{PID: 1, VPN: 0}
	b := Key{PID: 1, VPN: 2}
	d := Key{PID: 1, VPN: 4} // all even VPNs -> set 0
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.Lookup(a) // a is now MRU
	evicted, was := c.Insert(d, 3)
	if !was || evicted != b {
		t.Errorf("LRU eviction chose %+v (%v), want %+v", evicted, was, b)
	}
}

func TestProbeCounts(t *testing.T) {
	c := New(Config{Entries: 8, Ways: 4})
	keys := []Key{{1, 0}, {1, 2}, {1, 4}, {1, 6}} // one set (2 sets, even VPNs -> set 0)
	for i, k := range keys {
		c.Insert(k, units.PFN(i))
	}
	// Miss in a 4-way set probes all 4 entries.
	if r := c.Lookup(Key{1, 8}); r.Hit || r.Probes != 4 {
		t.Errorf("miss result = %+v", r)
	}
	// A hit probes at least 1 and at most 4.
	if r := c.Lookup(keys[0]); !r.Hit || r.Probes < 1 || r.Probes > 4 {
		t.Errorf("hit result = %+v", r)
	}
}

func TestIndexOffsetSeparatesProcesses(t *testing.T) {
	// With offsetting, the same VPN from different processes should
	// usually land in different sets; without it, always the same set.
	with := New(Config{Entries: 1024, Ways: 1, IndexOffset: true})
	without := New(Config{Entries: 1024, Ways: 1})
	same, diff := 0, 0
	for pid := units.ProcID(1); pid <= 16; pid++ {
		k0 := Key{PID: 0, VPN: 100}
		kp := Key{PID: pid, VPN: 100}
		if without.setIndex(k0) != without.setIndex(kp) {
			t.Error("nohash cache separated identical VPNs")
		}
		if with.setIndex(k0) == with.setIndex(kp) {
			same++
		} else {
			diff++
		}
	}
	if diff < 14 {
		t.Errorf("offsetting separated only %d/16 processes", diff)
	}
	_ = same
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 2})
	k := Key{PID: 3, VPN: 9}
	c.Insert(k, 5)
	if !c.Invalidate(k) {
		t.Error("Invalidate missed present key")
	}
	if c.Invalidate(k) {
		t.Error("Invalidate found absent key")
	}
	if c.Lookup(k).Hit {
		t.Error("invalidated key still hits")
	}
}

func TestInvalidateProcess(t *testing.T) {
	c := New(Config{Entries: 64, Ways: 2, IndexOffset: true})
	for v := units.VPN(0); v < 10; v++ {
		c.Insert(Key{PID: 1, VPN: v}, units.PFN(v))
		c.Insert(Key{PID: 2, VPN: v}, units.PFN(v))
	}
	if n := c.InvalidateProcess(1); n != 10 {
		t.Errorf("InvalidateProcess dropped %d, want 10", n)
	}
	for v := units.VPN(0); v < 10; v++ {
		if _, ok := c.Peek(Key{PID: 1, VPN: v}); ok {
			t.Fatal("pid 1 entry survived")
		}
		if _, ok := c.Peek(Key{PID: 2, VPN: v}); !ok {
			t.Fatal("pid 2 entry lost")
		}
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := New(Config{Entries: 16, Ways: 1})
	for v := units.VPN(0); v < 8; v++ {
		c.Insert(Key{PID: 1, VPN: v}, 0)
	}
	if c.Occupancy() != 8 {
		t.Errorf("Occupancy = %d", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Errorf("Occupancy after Flush = %d", c.Occupancy())
	}
}

func TestSRAMBytes(t *testing.T) {
	// The paper's cache: 8 K entries in 32 KB.
	c := New(Config{Entries: 8192, Ways: 1})
	if c.SRAMBytes() != 32*units.KB {
		t.Errorf("SRAMBytes = %d, want 32K", c.SRAMBytes())
	}
}

// Property: after any operation sequence, Lookup(k) hits iff k was
// inserted after its last eviction/invalidation — verified against a
// shadow model tracking the most recent Insert per key and evictions.
// One PageMap per process mirrors every shadow mutation, so the
// page-indexed table is exercised by the same sequences (full fuzz
// coverage lives in pagemap_test.go).
func TestCacheAgainstShadowModel(t *testing.T) {
	f := func(ops []uint16, ways8 bool) bool {
		ways := 1
		if ways8 {
			ways = 2
		}
		c := New(Config{Entries: 32, Ways: ways, IndexOffset: true})
		shadow := map[Key]units.PFN{}
		var mirror [3]PageMap[int32] // by PID
		for i, op := range ops {
			k := Key{PID: units.ProcID(op % 3), VPN: units.VPN((op >> 2) % 64)}
			switch op % 4 {
			case 0, 1: // insert
				pfn := units.PFN(i)
				evicted, was := c.Insert(k, pfn)
				shadow[k] = pfn
				put(&mirror[k.PID], k.VPN, int32(i))
				if was {
					delete(shadow, evicted)
					mirror[evicted.PID].Delete(evicted.VPN)
				}
			case 2: // lookup: a hit must match the shadow value
				if r := c.Lookup(k); r.Hit {
					want, ok := shadow[k]
					if !ok || want != r.PFN {
						return false
					}
				} else if _, ok := shadow[k]; ok {
					return false // cache lost a key the shadow says is resident
				}
			case 3:
				c.Invalidate(k)
				delete(shadow, k)
				mirror[k.PID].Delete(k.VPN)
			}
		}
		if mirror[0].Len()+mirror[1].Len()+mirror[2].Len() != len(shadow) {
			return false
		}
		for k := range shadow {
			if _, ok := get(&mirror[k.PID], k.VPN); !ok {
				return false
			}
		}
		return c.Occupancy() == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Storage reuse across runs must not leak state: a cache rebuilt on a
// used Storage behaves exactly like one on fresh storage.
func TestStorageReuseIsClean(t *testing.T) {
	st := NewStorage(0)
	cfg := Config{Entries: 32, Ways: 2, IndexOffset: true}
	first := NewWith(cfg, st)
	for v := units.VPN(0); v < 40; v++ {
		first.Insert(Key{PID: 1, VPN: v}, units.PFN(v))
	}
	second := NewWith(cfg, st)
	if second.Occupancy() != 0 {
		t.Fatalf("reused storage starts with occupancy %d", second.Occupancy())
	}
	fresh := New(cfg)
	for v := units.VPN(0); v < 40; v++ {
		e1, w1 := second.Insert(Key{PID: 2, VPN: v}, units.PFN(v))
		e2, w2 := fresh.Insert(Key{PID: 2, VPN: v}, units.PFN(v))
		if e1 != e2 || w1 != w2 {
			t.Fatalf("vpn %d: reused (%v,%v) != fresh (%v,%v)", v, e1, w1, e2, w2)
		}
	}
	// A smaller geometry on the same storage must also start clean.
	small := NewWith(Config{Entries: 8, Ways: 1}, st)
	if small.Occupancy() != 0 {
		t.Fatalf("shrunk reuse starts with occupancy %d", small.Occupancy())
	}
	if r := small.Lookup(Key{PID: 2, VPN: 1}); r.Hit {
		t.Fatal("stale entry visible after geometry change")
	}
}

// Stats counters must track every mutation path and add field-wise,
// the contract the sharded translation service aggregates on; and the
// resident count behind Occupancy must equal a scan of the lines after
// every one of those paths.
func TestStatsCounters(t *testing.T) {
	c := New(Config{Entries: 4, Ways: 2})
	k := func(pid, vpn int) Key { return Key{PID: units.ProcID(pid), VPN: units.VPN(vpn)} }
	step := func(what string, want int) {
		t.Helper()
		n := 0
		for _, l := range c.st.lines {
			if l.valid {
				n++
			}
		}
		if got := c.Occupancy(); got != n || got != want {
			t.Fatalf("after %s: Occupancy = %d, scan = %d, want %d", what, got, n, want)
		}
	}

	// 2 sets of 2 ways; without index offsetting, set = VPN & 1.
	c.Lookup(k(1, 10)) // miss
	step("miss", 0)
	c.Insert(k(1, 10), 100)
	step("insert into an empty way", 1)
	c.Lookup(k(1, 10))      // hit
	c.Insert(k(1, 10), 101) // in-place update: a fill, no eviction
	step("in-place update", 1)
	c.Insert(k(1, 12), 112) // set 0 now full: {10, 12}
	c.Insert(k(1, 14), 114) // evicts 10, the set-0 LRU
	step("insert with eviction", 2)
	c.Invalidate(k(1, 12))
	step("Invalidate", 1)
	c.Invalidate(k(1, 12)) // absent: not counted
	step("Invalidate of an absent key", 1)
	c.Insert(k(2, 21), 200) // set 1, no eviction
	c.Insert(k(2, 23), 202)
	step("insert into set 1", 3)
	c.InvalidateProcess(2)
	step("InvalidateProcess", 1)

	got := c.Stats()
	want := Stats{Hits: 1, Misses: 1, Fills: 6, Evictions: 1, Invalidations: 3}
	if got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}

	var sum Stats
	sum.Add(got)
	sum.Add(got)
	if sum.Hits != 2*got.Hits || sum.Fills != 2*got.Fills || sum.Invalidations != 2*got.Invalidations {
		t.Fatalf("Add is not field-wise: %+v", sum)
	}

	before := c.Occupancy()
	c.Flush()
	step("Flush", 0)
	after := c.Stats()
	if after.Invalidations != want.Invalidations+int64(before) {
		t.Fatalf("Flush counted %d invalidations, want %d", after.Invalidations-want.Invalidations, before)
	}
	c.Insert(k(1, 10), 100)
	if NewWith(c.Config(), c.st).Occupancy() != 0 {
		t.Fatal("NewWith on used storage does not start at occupancy 0")
	}
}

// TestLineLayout holds a cache line to one 32-byte record and the line
// storage to a 64-byte boundary at the geometries in use (the
// simulator's 16 to 16 K entries, the service's 8 K), so that a 4-way
// set is exactly two host cache lines and a 2-way set one. A field
// added to line that breaks either fails here.
func TestLineLayout(t *testing.T) {
	if size := unsafe.Sizeof(line{}); size != 32 {
		t.Errorf("line is %d bytes, want 32", size)
	}
	for entries := 16; entries <= 16*1024; entries *= 2 {
		st := NewStorage(entries)
		if off := uintptr(unsafe.Pointer(&st.lines[0])) % 64; off != 0 {
			t.Errorf("%d entries: lines start %d bytes into a 64-byte line", entries, off)
		}
	}
}
