// Package xlate is the long-lived, concurrent translation service:
// the cluster-scale counterpart of the batch experiment runner. Where
// the simulator owns one tlbcache per simulated NIC and drives it
// single-threaded, this service shards one logical translation table
// across independent tlbcache instances — power-of-two shard count,
// each shard behind its own mutex — so concurrent lookups from many
// clients never contend on a global lock (the memlock-proxy /
// region-spinlock idiom of UMA-TLB implementations, and SPARTA's
// divide-and-conquer translation partitioning).
//
// Requests are routed to shards by a multiplicative hash of
// (pid, vpn) with Fibonacci and avalanche constants, so consecutive
// pages of one process and the same page across processes both spread
// across shards. Within a shard, the stock tlbcache
// set-associative geometry, LRU replacement and index offsetting all
// apply unchanged — a one-shard service is behaviourally identical to
// a bare tlbcache.Cache.
//
// All counters are plain per-shard sums snapshotted under the shard
// lock, so Stats totals are a deterministic function of the operation
// multiset: any interleaving of the same client operations aggregates
// to byte-identical totals.
package xlate

import (
	"fmt"
	"sync"
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
// lock, held by value in one record. Shards share nothing, not even a
// cache line, so lookups to different shards proceed fully in
// parallel: the lock and the counters a hit writes (the Cache's
// leading fields) sit in the record's first line, and a tail pad of 8
// to 64 bytes rounds the record up to whole lines. Nothing touches the
// pad, so a shard slice that starts 8 bytes into a line (Go puts an
// allocation header in front of a slice of over 512 bytes that holds
// pointers) still shares no line between shards. TestShardLayout holds
// all of this.
type shard struct {
	mu    sync.Mutex
	cache tlbcache.Cache
	_     [cacheLine - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(tlbcache.Cache{}))%cacheLine]byte
}

// cacheLine is the line size of the CPUs the service targets (amd64
// and arm64 servers).
const cacheLine = 64

// Service is a sharded, concurrent-safe translation service.
type Service struct {
	cfg    Config
	mask   uint64
	shards []shard
	tel    *telemetry.Sink // nil = live telemetry off
}

// New returns a service for cfg.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		shards: make([]shard, cfg.Shards),
	}
	for i := range s.shards {
		s.shards[i].cache = *tlbcache.New(cfg.shardConfig())
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

// Lookup probes the service for k.
func (s *Service) Lookup(k Key) Result {
	req := s.tel.Begin(1)
	si := s.shardIndex(k)
	sh := &s.shards[si]
	sh.mu.Lock()
	r := sh.cache.Lookup(k)
	sh.mu.Unlock()
	var hits int64
	if r.Hit {
		hits = 1
	}
	req.Segment(si, 1)
	req.Finish(hits)
	return r
}

// Insert installs k→pfn, evicting within k's shard if needed.
func (s *Service) Insert(k Key, pfn units.PFN) (evicted Key, wasEvicted bool) {
	req := s.tel.Begin(1)
	si := s.shardIndex(k)
	sh := &s.shards[si]
	sh.mu.Lock()
	evicted, wasEvicted = sh.cache.Insert(k, pfn)
	sh.mu.Unlock()
	req.Segment(si, 1)
	req.Finish(0)
	return evicted, wasEvicted
}

// Invalidate removes k if present, reporting whether it was.
func (s *Service) Invalidate(k Key) bool {
	sh := &s.shards[s.shardIndex(k)]
	sh.mu.Lock()
	ok := sh.cache.Invalidate(k)
	sh.mu.Unlock()
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
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.cache.InvalidateProcess(pid)
		sh.mu.Unlock()
	}
	return n
}

// LookupMany resolves keys into out (grown if needed) and returns it;
// out[i] corresponds to keys[i]. The batch is grouped by shard in one
// pass, one hash per key, and shards are visited in index order with
// each shard's keys in batch order, so results and LRU motion are
// exactly those of single Lookups made in that order. Each shard lock
// is taken at most once per batch, and each locked stretch is one
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
	for si, next := range head[:len(s.shards)] {
		if next == 0 {
			continue
		}
		sh := &s.shards[si]
		var n int64
		sh.mu.Lock()
		for next != 0 {
			i := next - 1
			next = out[i].Probes
			out[i] = sh.cache.Lookup(keys[i])
			n++
			if out[i].Hit {
				totalHits++
			}
		}
		sh.mu.Unlock()
		req.Segment(si, n)
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
			for next != 0 {
				i := int(next - 1)
				next = link[i]
				if _, e := sh.cache.Insert(chunk[i], pfns[lo+i]); e {
					evictions++
				}
				n++
			}
			sh.mu.Unlock()
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
// shard is snapshotted atomically under its lock (shard order fixed),
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
		sh := &s.shards[i]
		sh.mu.Lock()
		cs := sh.cache.Stats()
		occ := sh.cache.Occupancy()
		sh.mu.Unlock()
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
