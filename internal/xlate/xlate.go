// Package xlate is the long-lived, concurrent translation service:
// the cluster-scale counterpart of the batch experiment runner. Where
// the simulator owns one tlbcache per simulated NIC and drives it
// single-threaded, this service shards one logical translation table
// across independent tlbcache instances — power-of-two shard count —
// so concurrent lookups from many clients never contend on a global
// lock (the memlock-proxy / region-spinlock idiom of UMA-TLB
// implementations, and SPARTA's divide-and-conquer translation
// partitioning).
//
// Requests are routed to shards by a multiplicative hash of
// (pid, vpn) with Fibonacci and avalanche constants, so consecutive
// pages of one process and the same page across processes both spread
// across shards. Within a shard, the stock tlbcache
// set-associative geometry, LRU replacement and index offsetting all
// apply unchanged — a one-shard service is behaviourally identical to
// a bare tlbcache.Cache.
//
// A batched lookup that writes no line takes no lock: it reads under
// a reader slot, one per CPU. All counters are plain sums, the caches'
// and the slots', so Stats totals are a deterministic function of the
// operation multiset: any interleaving of the same client operations
// aggregates to byte-identical totals.
package xlate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// Key identifies one translation; it aliases the tlbcache key so
// callers move between the batch and service worlds without copying.
type Key = tlbcache.Key

// Result is one lookup outcome (tlbcache's, unchanged).
type Result = tlbcache.Result

// Config parameterises the service.
type Config struct {
	// Shards is the number of independent translation units; must be a
	// positive power of two (the shard router masks hash bits) and at
	// most MaxShards.
	Shards int
	// Entries, Ways and IndexOffset configure each shard's cache with
	// the usual tlbcache geometry. Entries is per shard: total service
	// capacity is Shards*Entries.
	Entries     int
	Ways        int
	IndexOffset bool
}

// DefaultConfig is the service geometry `utlbsim serve` starts with:
// 8 shards of the paper's 8 K-entry, 4-way cache with index
// offsetting — 64 K translations of aggregate reach.
func DefaultConfig() Config {
	return Config{Shards: 8, Entries: 8192, Ways: 4, IndexOffset: true}
}

// maxShards bounds Config.Shards, so that a batch groups its keys by
// shard with a fixed array of list heads on the stack.
const maxShards = 64

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Shards <= 0 || c.Shards&(c.Shards-1) != 0 || c.Shards > maxShards {
		return fmt.Errorf("xlate: shard count %d not a power of two in [1, %d]", c.Shards, maxShards)
	}
	return c.shardConfig().Validate()
}

func (c Config) shardConfig() tlbcache.Config {
	return tlbcache.Config{Entries: c.Entries, Ways: c.Ways, IndexOffset: c.IndexOffset}
}

// shard is one translation unit: a stock tlbcache behind its own
// mutex, held by value in one record. Shards share nothing, not even a
// cache line, so lookups to different shards proceed fully in
// parallel: the mutex, the state readers load and the counters a
// locked lookup writes (the Cache's leading fields) sit in the record's
// first line, and a tail pad of 8 to 64 bytes rounds the record up to
// whole lines. Nothing touches the pad, so a shard slice that starts 8
// bytes into a line (Go puts an allocation header in front of a slice
// of over 512 bytes that holds pointers) still shares no line between
// shards. TestShardLayout holds all of this.
type shard struct {
	mu    sync.Mutex
	state atomic.Uint64 // +2 per write, bit 0 during a counter read (raise)
	cache tlbcache.Cache
	_     [cacheLine - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(atomic.Uint64{})+unsafe.Sizeof(tlbcache.Cache{}))%cacheLine]byte
}

// cacheLine is the line size of the CPUs the service targets (amd64
// and arm64 servers).
const cacheLine = 64

// slot is one reader slot, in a 64-byte record laid out like shard's.
type slot struct {
	claim sync.Mutex // held by the batch reading under the slot
	rec   []reader   // its stretch of Service.readers, one per shard
	_     [cacheLine - 32]byte
}

// reader is a slot's record of one shard, read by writers at zero
// presence. Writers load presence, so it has a line of its own.
type reader struct {
	presence atomic.Uint32 // 1 while the slot reads the shard
	_        [cacheLine - 4]byte
	seen     uint64 // the shard's state when the slot last left it
	hits     int64  // lookups answered without the lock
	misses   int64
	_        [cacheLine - 24]byte
}

// Service is a sharded, concurrent-safe translation service.
type Service struct {
	cfg     Config
	mask    uint64
	shards  []shard
	slots   []slot
	readers []reader        // slot j's record of shard si is readers[j*Shards+si]
	hint    sync.Pool       // a *slot this CPU released last
	tel     *telemetry.Sink // nil = live telemetry off
}

// New returns a service for cfg, with a reader slot per GOMAXPROCS.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		shards: make([]shard, cfg.Shards),
		slots:  make([]slot, runtime.GOMAXPROCS(0)),
	}
	for i := range s.shards {
		s.shards[i].cache = *tlbcache.New(cfg.shardConfig())
	}
	// Pointer-free and whole lines long, so it starts on a line.
	s.readers = make([]reader, len(s.slots)*cfg.Shards)
	for j := range s.slots {
		s.slots[j].rec = s.readers[j*cfg.Shards : (j+1)*cfg.Shards]
	}
	return s, nil
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// shardIndex routes k to its shard: a multiplicative hash mixing the
// process and page halves (the 64-bit golden ratio and a murmur-style
// avalanche constant), folded so the masked low bits carry high-order
// entropy. The shard hash is a
// different function of (pid, vpn) than the in-shard set index, so
// sharding does not correlate with set placement.
func (s *Service) shardIndex(k Key) int {
	h := uint64(k.VPN)*0x9E3779B97F4A7C15 + uint64(k.PID)*0xC2B2AE3D27D4EB4F
	return int((h ^ (h >> 29)) & s.mask)
}

// claim returns a free reader slot, nil when all are busy: the one
// this CPU put back last (LookupMany) if free, else the first free.
func (s *Service) claim() *slot {
	if sl, _ := s.hint.Get().(*slot); sl != nil && sl.claim.TryLock() {
		return sl
	}
	for j := range s.slots {
		if s.slots[j].claim.TryLock() {
			return &s.slots[j]
		}
	}
	return nil
}

// raise keeps readers off shard si, whose mutex the caller holds: it
// moves state by d, then waits out each presence. A write (d = 2)
// sends each slot's next visit to the lock; shardStats (d = 1) does not.
func (s *Service) raise(si int, d uint64) {
	s.shards[si].state.Add(d)
	for j := si; j < len(s.readers); j += len(s.shards) {
		for spin := 0; s.readers[j].presence.Load() != 0; spin++ {
			if spin >= 1000 {
				runtime.Gosched() // a descheduled reader
			}
		}
	}
}

// read answers keys of the chain from next (LookupMany's lists) from sh
// while each is a pure Probe, counting into r, unless sh's state moved
// since r's last visit; it returns the rest of the chain (0: none) and
// the keys answered and hit. Under presence, raised before it checks
// state, it calls only Probe (TestTranslationPathNeverBlocks).
func (r *reader) read(sh *shard, keys []Key, out []Result, next int) (int, int64, int64) {
	st := sh.state.Load()
	if st != r.seen {
		return next, 0, 0
	}
	r.presence.Store(1)
	if sh.state.Load() != st {
		r.presence.Store(0)
		return next, 0, 0
	}
	var n, hits int64
	for ; next != 0; n++ {
		i := next - 1
		res, pure := sh.cache.Probe(keys[i])
		if !pure {
			break
		}
		next = out[i].Probes
		out[i] = res
		if res.Hit {
			hits++
		}
	}
	r.hits += hits
	r.misses += n - hits
	r.presence.Store(0)
	return next, n, hits
}

// visit answers the chain of keys from next from shard si as single
// Lookups would, and returns how many it answered and hit: under slot
// sl lock-free while it can, then under the mutex, raising a write at
// the first key that must restamp.
func (s *Service) visit(si int, sl *slot, keys []Key, out []Result, next int) (n, hits int64) {
	sh := &s.shards[si]
	if sl != nil {
		if next, n, hits = sl.rec[si].read(sh, keys, out, next); next == 0 {
			return n, hits
		}
	}
	sh.mu.Lock()
	raised := false
	for next != 0 {
		i := next - 1
		next = out[i].Probes
		r, pure := sh.cache.Probe(keys[i])
		if pure {
			sh.cache.Count(r)
		} else {
			if !raised {
				s.raise(si, 2)
				raised = true
			}
			r = sh.cache.Lookup(keys[i])
		}
		out[i] = r
		n++
		if r.Hit {
			hits++
		}
	}
	if sl != nil {
		sl.rec[si].seen = sh.state.Load()
	}
	sh.mu.Unlock()
	return n, hits
}

// Lookup probes the service for k under its shard's mutex: for one key
// a reader slot costs more atomic operations than the mutex.
func (s *Service) Lookup(k Key) Result {
	req := s.tel.Begin(1)
	si := s.shardIndex(k)
	var out [1]Result
	_, hits := s.visit(si, nil, []Key{k}, out[:], 1)
	req.Segment(si, 1)
	req.Finish(hits)
	return out[0]
}

// Insert installs k→pfn, evicting within k's shard if needed.
func (s *Service) Insert(k Key, pfn units.PFN) (evicted Key, wasEvicted bool) {
	req := s.tel.Begin(1)
	si := s.shardIndex(k)
	sh := &s.shards[si]
	sh.mu.Lock()
	s.raise(si, 2)
	evicted, wasEvicted = sh.cache.Insert(k, pfn)
	sh.mu.Unlock()
	req.Segment(si, 1)
	req.Finish(0)
	return evicted, wasEvicted
}

// Invalidate removes k if present, reporting whether it was.
func (s *Service) Invalidate(k Key) bool {
	si := s.shardIndex(k)
	s.shards[si].mu.Lock()
	s.raise(si, 2)
	ok := s.shards[si].cache.Invalidate(k)
	s.shards[si].mu.Unlock()
	return ok
}

// InvalidateProcess removes every entry belonging to pid across all
// shards (process exit), returning the number of entries dropped. It
// is one invalidation per shard, in shard order, not one atomic
// operation: an insert for pid that runs concurrently may land in a
// shard already visited and survive. Every entry of pid that was
// resident before the call began is gone when it returns.
func (s *Service) InvalidateProcess(pid units.ProcID) int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.raise(i, 2)
		n += s.shards[i].cache.InvalidateProcess(pid)
		s.shards[i].mu.Unlock()
	}
	return n
}

// LookupMany resolves keys into out (grown if needed) and returns it;
// out[i] corresponds to keys[i]. The batch is grouped by shard in one
// pass, one hash per key, and shards are visited in index order with
// each shard's keys in batch order, so results and LRU motion are
// exactly those of single Lookups made in that order. The batch claims
// one reader slot; each shard is visited once, and each visit is one
// telemetry segment, timed against its shard when the request is
// sampled.
func (s *Service) LookupMany(keys []Key, out []Result) []Result {
	if cap(out) < len(keys) {
		out = make([]Result, len(keys))
	}
	out = out[:len(keys)]
	req := s.tel.Begin(len(keys))
	// One list per shard threads through out before it is filled:
	// head[si] is 1 + the index of the shard's first key, out[i].Probes
	// 1 + the index of the next key of keys[i]'s shard, and 0 ends a
	// list. Built back to front, each list comes out in batch order.
	var head [maxShards]int
	for i := len(keys) - 1; i >= 0; i-- {
		si := s.shardIndex(keys[i])
		out[i].Probes = head[si]
		head[si] = i + 1
	}
	var totalHits int64
	sl := s.claim()
	for si, next := range head[:len(s.shards)] {
		if next == 0 {
			continue
		}
		n, hits := s.visit(si, sl, keys, out, next)
		totalHits += hits
		req.Segment(si, n)
	}
	if sl != nil {
		sl.claim.Unlock()
		s.hint.Put(sl)
	}
	req.Finish(totalHits)
	return out
}

// groupKeys is how many keys InsertMany groups in one pass: serve's
// batch limit, so a batch from serve locks each shard at most once.
const groupKeys = 4096

// InsertMany installs keys[i]→pfns[i] for all i, grouping per shard
// like LookupMany: two inserts of one key apply in batch order. It
// returns the number of evictions the batch caused. The slices must be
// the same length.
func (s *Service) InsertMany(keys []Key, pfns []units.PFN) int {
	if len(keys) != len(pfns) {
		panic(fmt.Sprintf("xlate: InsertMany with %d keys but %d pfns", len(keys), len(pfns)))
	}
	req := s.tel.Begin(len(keys))
	evictions := 0
	// The lists LookupMany threads through out, here in a stack array:
	// link[i] is 1 + the index of the next key of keys[lo+i]'s shard.
	var link [groupKeys]uint16
	for lo := 0; lo < len(keys); lo += groupKeys {
		chunk := keys[lo:min(lo+groupKeys, len(keys))]
		var head [maxShards]uint16
		for i := len(chunk) - 1; i >= 0; i-- {
			si := s.shardIndex(chunk[i])
			link[i] = head[si]
			head[si] = uint16(i + 1)
		}
		for si, next := range head[:len(s.shards)] {
			if next == 0 {
				continue
			}
			sh := &s.shards[si]
			var n int64
			sh.mu.Lock()
			s.raise(si, 2)
			for next != 0 {
				i := int(next - 1)
				next = link[i]
				if _, e := sh.cache.Insert(chunk[i], pfns[lo+i]); e {
					evictions++
				}
				n++
			}
			s.shards[si].mu.Unlock()
			req.Segment(si, n)
		}
	}
	req.Finish(0)
	return evictions
}

// SyntheticPFN is the deterministic translation the service's HTTP
// insert endpoint installs when no explicit frame is given: a mixed
// function of the key that load clients (the benchmark's service
// workloads, the shadow tests) can recompute to verify lookup
// responses end-to-end.
func SyntheticPFN(k Key) units.PFN {
	h := uint64(k.VPN)*0xFF51AFD7ED558CCD + uint64(k.PID)*2654435761
	h ^= h >> 33
	if units.PFN(h) == units.NoPFN {
		h--
	}
	return units.PFN(h)
}

// Counters is one shard's (or the whole service's) cumulative counter
// snapshot: the cache's own counts, with Lookups (Hits+Misses) first so
// consumers need no arithmetic. Occupancy is the instantaneous
// valid-entry count.
type Counters struct {
	Lookups int64 `json:"lookups"`
	tlbcache.Stats
	Occupancy int64 `json:"occupancy"`
}

func (c *Counters) add(other Counters) {
	c.Lookups += other.Lookups
	c.Stats.Add(other.Stats)
	c.Occupancy += other.Occupancy
}

// ShardStats is one shard's counters, tagged with its index, plus the
// shard's fill level: Capacity is the configured entry count and
// OccupancyPermille is Occupancy/Capacity ×1000 (integer math, so the
// value is exact and byte-stable in JSON) — the number a load heatmap
// reads directly.
type ShardStats struct {
	Shard             int   `json:"shard"`
	Capacity          int64 `json:"capacity"`
	OccupancyPermille int64 `json:"occupancy_permille"`
	Counters
}

// Stats is a consistent-enough snapshot of the whole service: each
// shard is snapshotted atomically as a writer (shard order fixed),
// and Total is the field-wise sum in shard order. Because every field
// is a sum of commutative per-operation increments, Total depends only
// on the multiset of operations performed, not on how clients
// interleaved them.
type Stats struct {
	Shards   int          `json:"shards"`
	Entries  int          `json:"entries_per_shard"`
	Ways     int          `json:"ways"`
	Capacity int64        `json:"capacity"` // Shards*Entries, the aggregate reach
	PerShard []ShardStats `json:"per_shard"`
	Total    Counters     `json:"total"`
}

// Stats snapshots every shard in index order and aggregates totals.
func (s *Service) Stats() Stats {
	st := Stats{
		Shards:   s.cfg.Shards,
		Entries:  s.cfg.Entries,
		Ways:     s.cfg.Ways,
		Capacity: int64(s.cfg.Shards) * int64(s.cfg.Entries),
		PerShard: make([]ShardStats, len(s.shards)),
	}
	for i := range s.shards {
		cs, occ := s.shardStats(i)
		st.PerShard[i] = ShardStats{
			Shard:    i,
			Capacity: int64(s.cfg.Entries),
			Counters: Counters{Lookups: cs.Hits + cs.Misses, Stats: cs, Occupancy: int64(occ)},
		}
		if st.PerShard[i].Capacity > 0 {
			st.PerShard[i].OccupancyPermille = int64(occ) * 1000 / st.PerShard[i].Capacity
		}
		st.Total.add(st.PerShard[i].Counters)
	}
	return st
}

// shardStats reads shard si's counts, the cache's plus the slots', and
// its occupancy.
func (s *Service) shardStats(si int) (tlbcache.Stats, int) {
	sh := &s.shards[si]
	sh.mu.Lock()
	s.raise(si, 1)
	cs := sh.cache.Stats()
	for j := si; j < len(s.readers); j += len(s.shards) {
		cs.Hits += s.readers[j].hits
		cs.Misses += s.readers[j].misses
	}
	occ := sh.cache.Occupancy()
	sh.state.Add(^uint64(0))
	sh.mu.Unlock()
	return cs, occ
}
