// Package sim is the trace-driven simulator of §6: it feeds serialised
// communication traces to a translation design — the Hierarchical-UTLB,
// the interrupt-based baseline or the per-process UTLB — mimicking "the
// behavior of a network interface translation cache, the host-side UTLB
// driver, and user-level library", and derives the statistics behind
// Tables 4-8 and Figures 7-8: translation misses (classified into
// compulsory, capacity and conflict), page pinnings and unpinnings, and
// average lookup costs.
package sim

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/event"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// Mechanism selects the translation design under test. The table that
// names and builds the designs is in mechanism.go, and each design is
// one file: sharedCache in mechanism.go, interrupt.go, perprocess.go.
type Mechanism int

// The paper's designs: §3.2-3.3 and §6.2's baseline, then §3.1.
const (
	// UTLB is the Hierarchical-UTLB with a Shared UTLB-Cache.
	UTLB Mechanism = iota
	// Interrupt is the interrupt-per-miss baseline.
	Interrupt
	// PerProcess is the per-process UTLB: one static translation table
	// per process in NIC SRAM, indexed directly, with no NIC cache.
	PerProcess
)

// Config parameterises one simulation run.
type Config struct {
	// Mechanism selects the translation design.
	Mechanism Mechanism
	// CacheEntries and Ways shape the NIC translation cache. Under
	// PerProcess, which has no cache, CacheEntries is instead the size
	// of each process' SRAM translation table (any positive count; the
	// run fails if the tables outgrow NIC SRAM) and Ways must be 1.
	CacheEntries int
	Ways         int
	// IndexOffset enables process-dependent index offsetting (cache
	// designs only).
	IndexOffset bool
	// Prefetch is the UTLB miss prefetch width (1 = none).
	Prefetch int
	// Prepin is the UTLB sequential pre-pinning width (1 = none).
	Prepin int
	// BatchPages is how many pages of one operation the firmware
	// translates per dispatch (UTLB only): the first page of a batch
	// pays the full lookup entry cost, later pages only the per-entry
	// increment (nicsim.Costs.BatchEntry). 1 — the paper's model —
	// dispatches every page separately.
	BatchPages int
	// Policy is the user-level replacement policy (UTLB only; the
	// baseline always uses LRU, as in the paper).
	Policy core.PolicyKind
	// PinLimitPages caps each process' pinned pages; 0 = the paper's
	// "infinite host memory".
	PinLimitPages int
	// Seed drives any randomised policy.
	Seed int64
	// Recorder, when non-nil, receives the run's event timeline from
	// every simulated layer (library checks, cache traffic, DMA, pins,
	// interrupts, 3C miss attribution). nil — the default — disables
	// recording at zero cost: the hot paths see one nil pointer
	// compare. Attaching a recorder never changes simulated time or
	// any Result field.
	Recorder obs.Recorder
	// Overlap configures the discrete-event overlap engine. The zero
	// value — sequential-compatibility mode, used by all 8 paper
	// experiments — keeps the strictly serial charging model and
	// reproduces its numbers bit-exactly.
	Overlap OverlapConfig
}

// OverlapConfig gates the discrete-event overlap engine: with it
// enabled, DMA fills stream on a channel pool while the NIC resumes
// translation (prefetch-under-miss), host pin work proceeds while the
// NIC drains earlier operations, and interrupts synchronise the two
// clocks instead of adding their costs. Counters (lookups, misses,
// pins, 3C attribution) are identical in both modes — the functional
// trace order never changes, only where time is charged.
type OverlapConfig struct {
	// Enabled switches from sequential charging to the event engine.
	Enabled bool
	// DMAChannels is the size of the DMA channel pool (≥ 1). More
	// channels let independent fills and posted writes overlap each
	// other, not just the processors.
	DMAChannels int
}

// DefaultConfig mirrors the paper's baseline configuration: an 8 K
// entry direct-mapped cache with index offsetting, no prefetch, no
// pre-pinning, LRU, infinite memory.
func DefaultConfig() Config {
	return Config{
		Mechanism:    UTLB,
		CacheEntries: 8192,
		Ways:         1,
		IndexOffset:  true,
		Prefetch:     1,
		Prepin:       1,
		BatchPages:   1,
		Policy:       core.LRU,
	}
}

// Validate reports whether the configuration can drive a run. Run
// rejects invalid configurations rather than silently substituting
// defaults, so an explicitly-set Mechanism or Policy is never
// discarded; start from DefaultConfig() and override fields.
func (cfg Config) Validate() error {
	if cfg.Mechanism < 0 || int(cfg.Mechanism) >= len(designs) {
		return fmt.Errorf("sim: unknown mechanism %d", cfg.Mechanism)
	}
	if err := designs[cfg.Mechanism].validate(cfg); err != nil {
		return fmt.Errorf("sim: %w (zero-value Config is invalid; start from DefaultConfig())", err)
	}
	if cfg.Prefetch < 1 {
		return fmt.Errorf("sim: prefetch width %d < 1 (1 = no prefetch)", cfg.Prefetch)
	}
	if cfg.Prepin < 1 {
		return fmt.Errorf("sim: pre-pin width %d < 1 (1 = no pre-pinning)", cfg.Prepin)
	}
	if cfg.BatchPages < 1 {
		return fmt.Errorf("sim: batch width %d < 1 (1 = no batching)", cfg.BatchPages)
	}
	if cfg.PinLimitPages < 0 {
		return fmt.Errorf("sim: negative pin limit %d", cfg.PinLimitPages)
	}
	if cfg.Overlap.Enabled && cfg.Overlap.DMAChannels < 1 {
		return fmt.Errorf("sim: overlap enabled with %d DMA channels (want ≥ 1)", cfg.Overlap.DMAChannels)
	}
	if !cfg.Overlap.Enabled && cfg.Overlap.DMAChannels != 0 {
		return fmt.Errorf("sim: %d DMA channels with overlap disabled (sequential charging has no channel pool; leave it 0)", cfg.Overlap.DMAChannels)
	}
	switch cfg.Policy {
	case core.LRU, core.MRU, core.LFU, core.MFU, core.Random:
	default:
		return fmt.Errorf("sim: unknown replacement policy %d", cfg.Policy)
	}
	return nil
}

// cacheConfig is the NIC translation cache's geometry.
func (cfg Config) cacheConfig() tlbcache.Config {
	return tlbcache.Config{Entries: cfg.CacheEntries, Ways: cfg.Ways, IndexOffset: cfg.IndexOffset}
}

// Result carries the measured statistics of one run.
type Result struct {
	Config  Config
	Lookups int64
	// CheckMisses counts user-level check misses (UTLB only).
	CheckMisses int64
	// NIMisses counts NIC translation-cache misses.
	NIMisses int64
	// NIRefs counts NIC translations (≥ Lookups for multi-page ops).
	NIRefs int64
	// Pins and Unpins count page pinning/unpinning operations.
	Pins   int64
	Unpins int64
	// Compulsory/Capacity/Conflict classify NIMisses (Hill's 3C:
	// compulsory = the page's first reference; capacity = would also
	// miss in a fully-associative LRU cache of equal size, i.e. its
	// LRU stack distance is at least CacheEntries; conflict = the rest).
	Compulsory int64
	Capacity   int64
	Conflict   int64
	// HostTime and NICTime are total simulated time on each processor.
	// Under the sequential charging model these are clock positions;
	// under the overlap engine they are busy (working) time, so both
	// modes report the work performed, not time spent waiting.
	HostTime units.Time
	NICTime  units.Time
	// PinTime/UnpinTime/CheckTime break down the host side (UTLB).
	PinTime   units.Time
	UnpinTime units.Time
	CheckTime units.Time
	// DMATime is total DMA-channel occupancy (overlap runs only; the
	// sequential model folds DMA time into NICTime).
	DMATime units.Time
	// Makespan is end-to-end completion time: HostTime + NICTime under
	// the strictly serial charging model, the latest of the host/NIC/
	// DMA-pool horizons under the overlap engine. The overlap win is
	// the ratio of the two.
	Makespan units.Time
}

// Per-lookup rates, as the paper reports them.

// CheckMissRate is check misses per lookup.
func (r Result) CheckMissRate() float64 { return rate(r.CheckMisses, r.Lookups) }

// NIMissRate is NI misses per lookup (Tables 4-5).
func (r Result) NIMissRate() float64 { return rate(r.NIMisses, r.Lookups) }

// NIMissRatio is NI misses per NI reference (Table 8's "overall miss
// rates" and Figure 7/8's miss rates).
func (r Result) NIMissRatio() float64 { return rate(r.NIMisses, r.NIRefs) }

// UnpinRate is unpinned pages per lookup.
func (r Result) UnpinRate() float64 { return rate(r.Unpins, r.Lookups) }

// AvgLookupCost is the measured end-to-end translation cost per
// lookup: all host time plus all NIC time divided by lookups — the
// quantity Table 6 compares.
func (r Result) AvgLookupCost() units.Time {
	if r.Lookups == 0 {
		return 0
	}
	return (r.HostTime + r.NICTime) / units.Time(r.Lookups)
}

// AvgNICLookupCost is NIC time per NIC reference (Figure 8 right).
func (r Result) AvgNICLookupCost() units.Time {
	if r.NIRefs == 0 {
		return 0
	}
	return r.NICTime / units.Time(r.NIRefs)
}

// AmortizedPinCost and AmortizedUnpinCost are host pin/unpin time per
// lookup (Table 7).
func (r Result) AmortizedPinCost() units.Time {
	if r.Lookups == 0 {
		return 0
	}
	return r.PinTime / units.Time(r.Lookups)
}

// AmortizedUnpinCost is unpin time per lookup.
func (r Result) AmortizedUnpinCost() units.Time {
	if r.Lookups == 0 {
		return 0
	}
	return r.UnpinTime / units.Time(r.Lookups)
}

func rate(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// RunScratch recycles one run's working state into the next: the
// cache's line records, host memory's frame arrays and backing, each
// process slot's address space, pin bit vector, policy table, pre-pin
// buffer, per-process table and lookup tree, the batch staging
// buffers, and the overlap engine — the event kernel's list, the DMA
// channel pool and the Sequencer's holding slice. Together these are
// the bulk of a run's setup allocations.
// It also memoises the prepared form of the last memoTraces traces it
// ran (see prepared), about 40 bytes per page reference each, so a
// sweep that runs one trace under many configurations, 8 traces or
// fewer apart, sorts, surveys and measures it once. The scratches Run
// pools share one such memo, held until ResetTraceMemo.
// The zero value (or NewRunScratch) is ready to use; a scratch serves
// one run at a time, and results never depend on what a previous run
// left behind — every structure is reset on reuse. A scratch keeps
// the last run's object graph (its recorder included) reachable until
// its next run or its own collection.
type RunScratch struct {
	cacheStorage *tlbcache.Storage
	memo         *traceMemo
	mem          *phys.Memory
	spaces       []*vm.Space
	libs         []*core.LibScratch
	vpns         []units.VPN
	pfns         []units.PFN
	infos        []core.TranslateInfo
	// The overlap engine (timing.setup resets and wires it).
	kernel    event.Kernel
	dma       event.Pool
	sequencer event.Sequencer
	// The run in progress and the design it drives (the one cfg.Mechanism
	// selects; each keeps its per-process slices across runs). They live
	// here so that a run allocates none of them.
	run        run
	shared     sharedCache
	interrupt  interrupt
	perProcess perProcess
}

// NewRunScratch returns an empty scratch; its buffers grow on first
// use and persist across runs.
func NewRunScratch() *RunScratch { return &RunScratch{} }

// storage hands out the cache line storage.
func (s *RunScratch) storage() *tlbcache.Storage {
	if s.cacheStorage == nil {
		s.cacheStorage = tlbcache.NewStorage(0)
	}
	return s.cacheStorage
}

// memoTraces is how many prepared traces a scratch keeps.
const memoTraces = 8

// prepared is what every run of one trace needs of it and no Config
// changes: the records in replay order, the process slots (the
// trace's pids, ascending), each record's slot, and each page
// reference's LRU stack distance (trace.StackDistances). The
// distances are the 3C split of any cache size: by Mattson's
// argument a fully associative LRU cache of C entries hits a
// reference iff 0 <= d < C, so a miss with d < 0 is compulsory, one
// with d >= C capacity and any other conflict (run.classify).
// Everything but src is set once, by build, under once.
type prepared struct {
	src   trace.Trace // a copy of the input as given, which a memo hit must equal
	once  sync.Once
	recs  trace.Trace // src in replay order (src itself when already sorted)
	pids  []units.ProcID
	slots []int32 // by record
	dist  []int32 // by page reference, in replay order
}

func (p *prepared) build() {
	p.recs = p.src
	if !p.src.IsSortedByTime() {
		p.recs = slices.Clone(p.src)
		p.recs.SortByTime()
	}
	for _, r := range p.recs {
		if !slices.Contains(p.pids, r.PID) {
			p.pids = append(p.pids, r.PID)
		}
	}
	slices.Sort(p.pids)
	p.slots = make([]int32, len(p.recs))
	for i, r := range p.recs {
		p.slots[i] = int32(slices.Index(p.pids, r.PID))
	}
	p.dist = trace.StackDistances(p.recs)
}

// traceMemo keeps the prepared form of the last memoTraces traces,
// most recently used first. Its lock guards the list, the compares
// and the copy of a new trace; the build runs outside it, once per
// entry, so concurrent runs of one new trace wait for one build and
// runs of other traces do not wait at all. Run's pooled scratches
// share one (pooledMemo).
type traceMemo struct {
	mu      sync.Mutex
	entries [memoTraces]*prepared
}

// prepare returns tr's prepared form, from the memo when an entry's
// records equal tr's one for one (never by identity alone: a caller
// may rewrite a trace in place between runs), else built from a copy
// of tr and memoised in place of the least recently used entry.
func (s *RunScratch) prepare(tr trace.Trace) *prepared {
	if s.memo == nil {
		s.memo = new(traceMemo)
	}
	m, b := s.memo, recordBytes(tr)
	m.mu.Lock()
	i := slices.IndexFunc(m.entries[:], func(p *prepared) bool { return p != nil && bytes.Equal(recordBytes(p.src), b) })
	if i < 0 {
		i = memoTraces - 1
		m.entries[i] = &prepared{src: slices.Clone(tr)}
	}
	p := m.entries[i]
	copy(m.entries[1:i+1], m.entries[:i])
	m.entries[0] = p
	m.mu.Unlock()
	p.once.Do(p.build)
	return p
}

// recordBytes is tr's memory, compared in place of its records: a
// Record holds only integers, so equal bytes are equal records, and
// records whose padding differs cost a memo miss, never a wrong hit.
func recordBytes(tr trace.Trace) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tr))), len(tr)*int(unsafe.Sizeof(trace.Record{})))
}

// memory hands out host memory, reset to size bytes.
func (s *RunScratch) memory(size int64) *phys.Memory {
	if s.mem == nil {
		s.mem = phys.NewMemory(size)
	} else {
		s.mem.Reset(size)
	}
	return s.mem
}

// space hands out process slot i's address space, emptied and rebound.
func (s *RunScratch) space(i int, pid units.ProcID, mem *phys.Memory, pinLimit int) *vm.Space {
	if i == len(s.spaces) {
		s.spaces = append(s.spaces, vm.NewSpace(pid, mem, pinLimit))
	} else {
		s.spaces[i].Reset(pid, mem, pinLimit)
	}
	return s.spaces[i]
}

// libScratch hands out process slot i's library scratch.
func (s *RunScratch) libScratch(i int) *core.LibScratch {
	for len(s.libs) <= i {
		s.libs = append(s.libs, &core.LibScratch{})
	}
	return s.libs[i]
}

// batchBufs hands out the loop's translation staging buffers, b long,
// and sizes pfns (where a design that resolves frames in batch lands
// them; the loop itself only needs hit or miss) to match.
func (s *RunScratch) batchBufs(b int) ([]units.VPN, []core.TranslateInfo) {
	if cap(s.vpns) < b {
		s.vpns = make([]units.VPN, b)
		s.pfns = make([]units.PFN, b)
		s.infos = make([]core.TranslateInfo, b)
	}
	return s.vpns[:b], s.infos[:b]
}

// scratchPool recycles RunScratch values across Run calls and across
// the worker goroutines of parallel experiment sweeps: each worker
// checks out its own scratch for the duration of a run, so reuse never
// shares state between concurrent runs but the prepared traces of
// pooledMemo, which are read-only once built. Scratch contents never
// affect results, so pooling cannot perturb determinism.
var scratchPool = sync.Pool{New: func() any { return &RunScratch{memo: &pooledMemo} }}

// pooledMemo is the pooled scratches' one memo. It outlives the
// collections that empty the pool, and concurrent sweeps of one trace
// keep one prepared copy of it, not one per scratch: `utlbsim -exp all
// -parallel 8` peaked at twice its RSS with a memo per pooled scratch.
// It holds its traces until they are evicted or ResetTraceMemo drops
// them.
var pooledMemo traceMemo

// ResetTraceMemo drops the prepared traces Run's pooled scratches
// share, for long-lived processes that reset workload's trace store
// to get the memory back. Runs in progress keep what they hold.
func ResetTraceMemo() {
	pooledMemo.mu.Lock()
	defer pooledMemo.mu.Unlock()
	clear(pooledMemo.entries[:])
}

// Run drives tr through the configured mechanism and returns the
// measured statistics. The trace is processed in timestamp order; all
// processes run on one simulated node (the paper reports per-node
// averages, and nodes are homogeneous). Working state is drawn from an
// internal scratch pool; callers that need a deterministic allocation
// profile (benchmarks) can hold their own scratch and call RunWith.
func Run(tr trace.Trace, cfg Config) (Result, error) {
	scr := scratchPool.Get().(*RunScratch)
	defer scratchPool.Put(scr)
	return RunWith(tr, cfg, scr)
}

// RunWith is Run over an explicit scratch (nil allocates everything
// fresh, the pre-scratch behaviour).
func RunWith(tr trace.Trace, cfg Config, scr *RunScratch) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{Config: cfg}, err
	}
	if scr == nil {
		scr = NewRunScratch()
	}
	p := scr.prepare(tr)

	// The paper's "infinite host memory": a frame for every page each
	// process can address and for each of its second-level tables, plus
	// the garbage frame. Memory costs nothing for frames it never hands
	// out.
	frames := int64(len(p.pids))*(core.VASpacePages+core.DirEntries) + 1
	r := &scr.run
	*r = run{cfg: cfg, scr: scr, pids: p.pids, dist: p.dist, res: Result{Config: cfg}}
	r.host = hostos.NewWith(0, scr.memory(frames*units.PageSize), hostos.DefaultCosts())
	nicClock := units.NewClock()
	b := bus.New(r.host.Memory(), nicClock, bus.DefaultCosts())
	r.nic = nicsim.New(0, units.MB, nicClock, b, nicsim.DefaultCosts())
	// One handle serves every layer of the run, and with it one transfer
	// cursor: each trace record Begins a new id, and every event recorded
	// while that record is processed — check, probes, DMA fill, pins,
	// interrupts, miss classification — carries it, so analysis can
	// reconstruct the record's full causal chain. It is nil, and costs
	// nothing, when the run is not recorded.
	r.tap = obs.NewTap(r.timing.setup(cfg, scr, r.host, b, r.nic), 0)
	r.host.SetTap(r.tap)
	b.SetTap(r.tap)

	m, width, err := designs[cfg.Mechanism].build(r)
	if err != nil {
		return r.res, err
	}
	for i, pid := range p.pids {
		proc, err := r.host.Spawn(pid, "proc", scr.space(i, pid, r.host.Memory(), cfg.PinLimitPages))
		if err != nil {
			return r.res, err
		}
		if err := m.attach(i, proc); err != nil {
			return r.res, err
		}
	}

	// The replay loop, the only one: every design sees each record as
	// one host-side post and then one firmware dispatch per batch of
	// up to width pages. With width == 1 that is page-at-a-time
	// dispatch, charge- and event-identical to the unbatched model. A
	// record that spans no page is no lookup, in any design.
	vpns, infos := scr.batchBufs(width)
	ref := 0 // the page reference the next translation is, in p.dist
	for k, rec := range p.recs {
		pages := units.PagesSpanned(rec.VA, int(rec.Bytes))
		if pages == 0 {
			continue
		}
		r.tap.Begin()
		slot := int(p.slots[k])
		if err := m.post(slot, rec); err != nil {
			return r.res, fmt.Errorf("sim: lookup %v/%#x: %w", rec.PID, rec.VA, err)
		}
		r.timing.post()
		first := rec.VA.PageOf()
		r.res.NIRefs += int64(pages)
		for start := 0; start < pages; start += width {
			n := min(width, pages-start)
			for i := 0; i < n; i++ {
				vpns[i] = first + units.VPN(start+i)
			}
			if err := m.translate(slot, vpns[:n], infos[:n]); err != nil {
				return r.res, fmt.Errorf("sim: translate %v/%#x: %w", rec.PID, vpns[0], err)
			}
			for i := 0; i < n; i++ {
				if !infos[i].Hit {
					r.classify(ref+i, rec.PID, vpns[i])
				}
			}
			ref += n
		}
	}
	m.finish(&r.res)
	err = r.timing.finish(&r.res)
	return r.res, err
}
