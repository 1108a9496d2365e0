// Package tlbcache implements the Shared UTLB-Cache (paper §3.2): the
// network-interface-resident cache of translation entries drawn from
// per-process translation tables in host memory.
//
// Each entry is tagged with a process tag and a virtual-address tag
// (the Hierarchical-UTLB line format of Figure 4). The cache supports
// direct-mapped, 2-way, and 4-way organisations, LRU replacement within
// a set, and the paper's index-offsetting technique: each process'
// indices are offset by a process-dependent constant so simultaneous
// processes hash to different cache regions (§6.3).
package tlbcache

import (
	"fmt"

	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// Key identifies one translation: a process and a virtual page.
type Key struct {
	PID units.ProcID
	VPN units.VPN
}

// Config parameterises a cache.
type Config struct {
	// Entries is the total number of cache entries; must be a power of
	// two. The paper's implementation uses 8 K entries (32 KB).
	Entries int
	// Ways is the set associativity: 1 (direct-mapped), 2, or 4.
	Ways int
	// IndexOffset enables the process-dependent index offsetting that
	// distinguishes the paper's "direct" from "direct-nohash" rows.
	IndexOffset bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("tlbcache: entries %d not a positive power of two", c.Entries)
	}
	switch c.Ways {
	case 1, 2, 4:
	default:
		return fmt.Errorf("tlbcache: associativity %d not in {1,2,4}", c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlbcache: entries %d not divisible by ways %d", c.Entries, c.Ways)
	}
	return nil
}

// EntryBytes is the SRAM footprint of one cache line: a 20-bit physical
// address, an 8-bit address tag and a 4-bit process tag fit in 4 bytes
// (Figure 3/4 line format).
const EntryBytes = 4

// Storage is a cache's lines, set-major, one 32-byte record each: a
// 4-way set is two adjacent 64-byte host cache lines, so a probe, its
// hit, an insert's victim choice and the restamp all stay inside them
// (TestLineLayout). The block is reusable across simulation runs —
// sim.RunScratch hands the same Storage to every run it hosts, so
// steady-state cache construction allocates nothing.
type Storage struct {
	lines []line
}

// line is one cache line. used is its LRU stamp, compared only within
// a set; stamps come from one counter, so valid lines hold distinct
// ones. mru flags the line holding its set's largest stamp, the set's
// MRU line (no line, once that one is cleared). A hit on the MRU line
// writes nothing, since restamping it could not change the set's
// victim order; any other hit restamps its line and moves the flag to
// it. An invalid line is all zeroes.
type line struct {
	pid        units.ProcID
	valid, mru bool
	vpn        units.VPN
	pfn        units.PFN
	used       int64
}

// holds reports whether l is valid and tagged k.
func (l *line) holds(k Key) bool {
	return l.valid && l.pid == k.PID && l.vpn == k.VPN
}

// NewStorage returns storage for entries cache lines.
func NewStorage(entries int) *Storage {
	s := &Storage{}
	s.ensure(entries)
	return s
}

// ensure sizes the lines for entries and clears them, reusing capacity
// when the geometry allows.
func (s *Storage) ensure(entries int) {
	if cap(s.lines) >= entries {
		s.lines = s.lines[:entries]
		clear(s.lines)
		return
	}
	s.lines = make([]line, entries)
}

// Result describes one lookup: whether it hit, the translation if so,
// and how many entries the firmware had to probe (the LANai checks one
// entry at a time, so probes directly scale lookup cost).
type Result struct {
	Hit    bool
	PFN    units.PFN
	Probes int
}

// Cache is a Shared UTLB-Cache.
type Cache struct {
	// The fields a lookup writes come first, so that a holder placing
	// a Cache right after its lock (xlate's shard record) keeps the
	// lock and these in one cache line.
	tick   int64 // last LRU stamp handed out
	hits   int64
	misses int64

	cfg     Config
	numSets int
	st      *Storage // numSets * ways lines, set-major

	resident      int // valid lines, kept by Insert and the invalidations
	fills         int64
	evictions     int64
	invalidations int64

	// Observability: when tap is non-nil, lookups, fills, evictions and
	// invalidations are recorded against clock (the NIC clock of the
	// owning node). The cache is the single chokepoint every translation
	// path shares, so instrumenting here covers the UTLB, interrupt and
	// VMMC firmware paths alike.
	tap   *obs.Tap
	clock *units.Clock

	// fillFault, when armed, drops Insert calls (a failed fetch DMA);
	// nil — the default — never fires.
	fillFault *fault.Point
	// droppedFills counts fills lost to injected fetch errors.
	droppedFills int64
}

// New returns a cache for cfg. It panics on an invalid configuration:
// cache geometry is fixed at design time, not a runtime input.
func New(cfg Config) *Cache { return NewWith(cfg, nil) }

// NewWith is New reusing st as the line storage (nil allocates fresh).
// The storage is resized and cleared for cfg's geometry, so a caller
// can hand the same Storage to run after run and pay the line-array
// allocation exactly once.
func NewWith(cfg Config, st *Storage) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if st == nil {
		st = NewStorage(cfg.Entries)
	} else {
		st.ensure(cfg.Entries)
	}
	return &Cache{
		cfg:     cfg,
		numSets: cfg.Entries / cfg.Ways,
		st:      st,
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetTap attaches the recording handle: lookup outcomes and line
// motion are recorded with timestamps read from clock, which the cache
// needs handed to it because it charges no time itself; its callers do.
// A nil t detaches.
func (c *Cache) SetTap(t *obs.Tap, clock *units.Clock) {
	c.tap = t
	c.clock = clock
}

// SetFillFault arms the injected fetch-DMA fault on Insert
// (fault.SiteCacheFill): a firing check drops the fill, so the page
// stays uncached and will miss again. Correctness is unaffected — the
// translator returns the entry it already fetched. nil disables.
func (c *Cache) SetFillFault(p *fault.Point) { c.fillFault = p }

// DroppedFills counts fills lost to injected fetch errors.
func (c *Cache) DroppedFills() int64 { return c.droppedFills }

// SRAMBytes reports the cache's NIC SRAM footprint.
func (c *Cache) SRAMBytes() int { return c.cfg.Entries * EntryBytes }

// Hits and Misses report cumulative lookup outcomes.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// Stats is the cache's cumulative counter snapshot. All fields are
// plain sums of per-operation outcomes, so snapshots taken from
// different caches add field-wise — the property the sharded
// translation service (internal/xlate) relies on to aggregate
// per-shard counters into deterministic totals.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Fills         int64 `json:"fills"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	DroppedFills  int64 `json:"dropped_fills,omitempty"`
}

// Add accumulates other into s field-wise.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Fills += other.Fills
	s.Evictions += other.Evictions
	s.Invalidations += other.Invalidations
	s.DroppedFills += other.DroppedFills
}

// Stats snapshots the cumulative counters: lookup outcomes, line
// installs (Fills counts every successful Insert, in-place updates
// included), evictions, and invalidated entries (Invalidate,
// InvalidateProcess and Flush all count the lines they clear).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Fills:         c.fills,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		DroppedFills:  c.droppedFills,
	}
}

// offset returns the process-dependent index offset. Knuth's
// multiplicative constant spreads consecutive PIDs far apart, which is
// all the technique needs: the same table index from different
// processes must land in different cache sets.
func (c *Cache) offset(pid units.ProcID) uint64 {
	if !c.cfg.IndexOffset {
		return 0
	}
	return uint64(pid) * 2654435761
}

func (c *Cache) setIndex(k Key) int {
	return int((uint64(k.VPN) + c.offset(k.PID)) & uint64(c.numSets-1))
}

// set returns k's set: ways adjacent lines.
func (c *Cache) set(k Key) []line {
	base := c.setIndex(k) * c.cfg.Ways
	return c.st.lines[base : base+c.cfg.Ways]
}

// Lookup probes the cache for k. Probes counts the entries examined:
// on a hit, the position of the matching entry; on a miss, the full
// set width.
func (c *Cache) Lookup(k Key) Result {
	set := c.set(k)
	for i := range set {
		if l := &set[i]; l.holds(k) {
			if !l.mru {
				c.stamp(set, i)
			}
			c.hits++
			if c.tap != nil {
				c.tap.Instant(obs.KindCacheHit, c.clock.Now(), k.PID, uint64(k.VPN), uint64(i+1))
			}
			return Result{Hit: true, PFN: l.pfn, Probes: i + 1}
		}
	}
	c.misses++
	if c.tap != nil {
		c.tap.Instant(obs.KindCacheMiss, c.clock.Now(), k.PID, uint64(k.VPN), uint64(c.cfg.Ways))
	}
	return Result{Hit: false, PFN: units.NoPFN, Probes: c.cfg.Ways}
}

// Probe answers k as Lookup would but writes nothing; pure reports
// whether Lookup would have written only its count (k misses, or hits
// its set's MRU line). Probes may run beside Probes, nothing else.
func (c *Cache) Probe(k Key) (r Result, pure bool) {
	set := c.set(k)
	for i := range set {
		if l := &set[i]; l.holds(k) {
			return Result{Hit: true, PFN: l.pfn, Probes: i + 1}, l.mru
		}
	}
	return Result{PFN: units.NoPFN, Probes: c.cfg.Ways}, true
}

// Count counts r, a pure Probe answer, as Lookup would have.
func (c *Cache) Count(r Result) {
	if r.Hit {
		c.hits++
	} else {
		c.misses++
	}
}

// stamp gives line i of set the next LRU stamp and the set's MRU flag.
func (c *Cache) stamp(set []line, i int) {
	c.tick++
	for j := range set {
		set[j].mru = false
	}
	set[i].used = c.tick
	set[i].mru = true
}

// Peek reports whether k is cached without touching LRU state or
// hit/miss counters. Used by tests and by prefetch logic.
func (c *Cache) Peek(k Key) (units.PFN, bool) {
	set := c.set(k)
	for i := range set {
		if set[i].holds(k) {
			return set[i].pfn, true
		}
	}
	return units.NoPFN, false
}

// Insert installs k→pfn, evicting the set's LRU entry if needed. It
// returns the evicted key, if any. Inserting an existing key updates
// it in place.
func (c *Cache) Insert(k Key, pfn units.PFN) (evicted Key, wasEvicted bool) {
	if c.fillFault.Fire() {
		// Injected fetch-DMA failure: the fill never lands.
		c.droppedFills++
		if c.tap != nil {
			c.tap.Instant(obs.KindFaultFetch, c.clock.Now(), k.PID, uint64(k.VPN), 0)
		}
		return Key{}, false
	}
	set := c.set(k)
	c.fills++
	victim := 0
	for i := range set {
		l := &set[i]
		if l.holds(k) {
			l.pfn = pfn
			c.stamp(set, i)
			return Key{}, false
		}
		if !l.valid {
			if set[victim].valid {
				victim = i
			}
			continue
		}
		if set[victim].valid && l.used < set[victim].used {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		evicted, wasEvicted = Key{PID: v.pid, VPN: v.vpn}, true
		c.evictions++
	} else {
		c.resident++
	}
	*v = line{pid: k.PID, valid: true, vpn: k.VPN, pfn: pfn}
	c.stamp(set, victim)
	if c.tap != nil {
		if wasEvicted {
			c.tap.Instant(obs.KindCacheEvict, c.clock.Now(), evicted.PID, uint64(evicted.VPN), 0)
		}
		c.tap.Instant(obs.KindCacheFill, c.clock.Now(), k.PID, uint64(k.VPN), 0)
	}
	return evicted, wasEvicted
}

// Invalidate removes k from the cache if present, reporting whether it
// was. The device driver calls this when a page is unpinned so the NIC
// never holds a translation for reclaimable memory.
func (c *Cache) Invalidate(k Key) bool {
	set := c.set(k)
	for i := range set {
		if set[i].holds(k) {
			set[i] = line{}
			c.resident--
			c.invalidations++
			if c.tap != nil {
				c.tap.Instant(obs.KindCacheInvalidate, c.clock.Now(), k.PID, uint64(k.VPN), 1)
			}
			return true
		}
	}
	return false
}

// InvalidateProcess removes every entry belonging to pid (process
// exit). It returns the number of entries dropped.
func (c *Cache) InvalidateProcess(pid units.ProcID) int {
	n := 0
	for i := range c.st.lines {
		if l := &c.st.lines[i]; l.valid && l.pid == pid {
			*l = line{}
			n++
		}
	}
	c.resident -= n
	c.invalidations += int64(n)
	if c.tap != nil && n > 0 {
		// One event for the sweep: Arg2 carries the entry count.
		c.tap.Instant(obs.KindCacheInvalidate, c.clock.Now(), pid, 0, uint64(n))
	}
	return n
}

// Flush empties the cache.
func (c *Cache) Flush() {
	clear(c.st.lines)
	c.invalidations += int64(c.resident)
	c.resident = 0
}

// Occupancy reports how many entries are currently valid.
func (c *Cache) Occupancy() int { return c.resident }
