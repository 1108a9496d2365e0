package sim

import (
	"fmt"
	"slices"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/trace"
	"utlb/internal/units"
)

// mechanism is one translation design as RunWith's replay loop drives
// it. The loop owns everything the designs share — trace order, the
// node, spawning, recording, the doorbell, page walking, batching, 3C
// classification — and a design supplies only what makes it that
// design (DESIGN.md §5a, "Adding a translation design").
type mechanism interface {
	// attach registers proc as process slot i (slots are the trace's
	// pids, ascending), before any record is replayed.
	attach(i int, proc *hostos.Process) error
	// post runs the host side of one record of slot i's process — the
	// user-level check and whatever pinning it triggers — before the
	// request is posted to the NIC. rec spans at least one page.
	post(i int, rec trace.Record) error
	// translate resolves one firmware dispatch, up to width consecutive
	// pages of one record of slot i's process, landing page j's frame in
	// scr.pfns[j] and reporting in infos[j].Hit whether it hit on the NIC.
	translate(i int, vpns []units.VPN, infos []core.TranslateInfo) error
	// finish folds the design's counters into res.
	finish(res *Result)
}

// designs is the registry, indexed by Mechanism. Mechanism.String and
// Config.Validate read it and RunWith builds from it, so a new design
// is its file, its constant and its entry here; TestEveryMechanism and
// TestDesignPinInvariants then cover it.
var designs = [...]struct {
	name string
	// validate rejects the Config fields this design cannot honour.
	validate func(Config) error
	// build constructs the design on r's node, in r.scr, hands what it
	// built r.tap to record through, and returns with the design the
	// most pages one firmware dispatch carries.
	build func(r *run) (m mechanism, width int, err error)
}{
	UTLB:       {"UTLB", validateCache, newSharedCache},
	Interrupt:  {"Intr", validateCache, newInterrupt},
	PerProcess: {"PerProc", validateTables, newPerProcess},
}

func (m Mechanism) String() string {
	if m < 0 || int(m) >= len(designs) {
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
	return designs[m].name
}

// run is what one replay shares between the loop and its design: the
// node, the process slots, the recording handle, the trace's stack
// distances and the Result being built.
type run struct {
	cfg    Config
	scr    *RunScratch
	host   *hostos.Host
	nic    *nicsim.NIC
	pids   []units.ProcID // the process slots: the trace's pids, ascending
	tap    *obs.Tap       // where every layer of the node records; nil when disabled
	dist   []int32        // each page reference's LRU stack distance (prepared.dist)
	timing timing
	res    Result
}

// slot maps pid to its process slot, or -1. A node hosts a handful of
// processes, and a scan of a few words beats a hash.
func (r *run) slot(pid units.ProcID) int { return slices.Index(r.pids, pid) }

// classify attributes the NIC miss of page reference ref, page vpn of
// pid's process, to one of Hill's three classes (§3.2 cites [23]) in
// r.res by its stack distance d against the cache size C: compulsory
// (d < 0, the page's first reference), capacity (d >= C, a fully
// associative LRU cache of C entries would miss it too) or conflict.
// When recording, it emits the class as an instant event on the sim
// track at the current NIC time.
func (r *run) classify(ref int, pid units.ProcID, vpn units.VPN) {
	kind := obs.KindMissConflict
	switch d := r.dist[ref]; {
	case d < 0:
		kind = obs.KindMissCompulsory
		r.res.Compulsory++
	case int(d) >= r.cfg.CacheEntries:
		kind = obs.KindMissCapacity
		r.res.Capacity++
	default:
		r.res.Conflict++
	}
	r.tap.Instant(kind, r.nic.Clock().Now(), pid, uint64(vpn), 0)
}

// validateCache accepts the designs built on a NIC translation cache.
func validateCache(cfg Config) error { return cfg.cacheConfig().Validate() }

// sharedCache is the Hierarchical-UTLB with a Shared UTLB-Cache
// (§3.2-3.3): a user-level library per process checks and pins on the
// host, and the firmware translates through the shared cache, filling
// misses by DMA from the host-resident tables.
type sharedCache struct {
	r          *run
	drv        *core.Driver
	translator core.Translator // by value, so a run does not allocate it
	libs       []*core.Lib     // by process slot
}

func newSharedCache(r *run) (mechanism, int, error) {
	drv, err := core.NewDriverWith(r.host, r.nic, r.cfg.cacheConfig(), r.scr.storage())
	if err != nil {
		return nil, 0, err
	}
	drv.SetTap(r.tap)
	m := &r.scr.shared
	*m = sharedCache{r: r, drv: drv, translator: *core.NewTranslator(drv, r.cfg.Prefetch), libs: m.libs[:0]}
	return m, r.cfg.BatchPages, nil
}

func (m *sharedCache) attach(i int, proc *hostos.Process) error {
	cfg := m.r.cfg
	lib, err := core.NewLib(m.drv, proc, core.LibConfig{
		Policy: cfg.Policy, PolicySeed: cfg.Seed, Prepin: cfg.Prepin,
		Scratch: m.r.scr.libScratch(i),
	})
	m.libs = append(m.libs, lib)
	return err
}

func (m *sharedCache) post(i int, rec trace.Record) error {
	return m.libs[i].Lookup(rec.VA, int(rec.Bytes))
}

func (m *sharedCache) translate(i int, vpns []units.VPN, infos []core.TranslateInfo) error {
	m.translator.TranslateBatchIn(m.libs[i].Table(), vpns, m.r.scr.pfns, infos)
	return nil
}

func (m *sharedCache) finish(res *Result) {
	for _, lib := range m.libs {
		res.addLib(lib.Stats())
	}
	m.r.librarySplit(res)
	res.NIMisses = m.drv.Cache().Misses() // the paper's "NI misses"
}

// addLib folds one user-level library's counters into r.
func (r *Result) addLib(st core.LibStats) {
	r.Lookups += st.Lookups
	r.CheckMisses += st.CheckMisses
	r.Pins += st.PagesPinned
	r.Unpins += st.PagesUnpinned
}

// librarySplit reads the host side of a design with a user-level
// library off the host clock's rows: the checks, the pin calls (with
// any reclaim they ran) and the unpin calls, which together are all of
// its host time.
func (r *run) librarySplit(res *Result) {
	c := r.host.Clock()
	res.CheckTime = c.Sum(units.RowCheck)
	res.PinTime = c.Sum(units.RowPinSyscall, units.RowPin, units.RowPinPage, units.RowReclaim)
	res.UnpinTime = c.Sum(units.RowUnpinSyscall, units.RowUnpin, units.RowUnpinPage)
}
