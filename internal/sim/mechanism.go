package sim

import (
	"errors"
	"fmt"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/intrbase"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/tlbcache"
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
	// request is posted to the NIC.
	post(i int, rec trace.Record) error
	// translate resolves one firmware dispatch, up to width consecutive
	// pages of one record of pid, reporting in infos[i].Hit whether
	// page i hit on the NIC.
	translate(pid units.ProcID, vpns []units.VPN, infos []core.TranslateInfo) error
	// finish folds the design's counters into res.
	finish(res *Result)
}

// designs is the registry, indexed by Mechanism. Mechanism.String and
// Config.Validate read it and RunWith builds from it, so a new design
// is its adapter, its constant and its entry here; TestEveryMechanism
// then covers it.
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
// node, the recording handle, the classifier and the Result being built.
type run struct {
	cfg    Config
	scr    *RunScratch
	host   *hostos.Host
	nic    *nicsim.NIC
	tap    *obs.Tap // where every layer of the node records; nil when disabled
	cls    *classifier
	timing timing
	res    Result
}

// missKinds maps a 3C attribution to its event kind.
var missKinds = [...]obs.Kind{
	classCompulsory: obs.KindMissCompulsory,
	classCapacity:   obs.KindMissCapacity,
	classConflict:   obs.KindMissConflict,
}

// classify attributes one NIC reference in r.res and, when recording,
// emits an instant event for a classified miss on the sim track at the
// current NIC time.
func (r *run) classify(pid units.ProcID, vpn units.VPN, miss bool) {
	if class := r.cls.classify(&r.res, pid, vpn, miss); class != classNone {
		r.tap.Instant(missKinds[class], r.nic.Clock().Now(), pid, uint64(vpn), 0)
	}
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

func (m *sharedCache) translate(pid units.ProcID, vpns []units.VPN, infos []core.TranslateInfo) error {
	m.translator.TranslateBatch(pid, vpns, m.r.scr.pfns, infos)
	return nil
}

func (m *sharedCache) finish(res *Result) {
	for _, lib := range m.libs {
		res.addLib(lib.Stats())
	}
	res.NIMisses = m.translator.Misses()
}

// addLib folds one user-level library's counters into r.
func (r *Result) addLib(st core.LibStats) {
	r.Lookups += st.Lookups
	r.CheckMisses += st.CheckMisses
	r.Pins += st.PagesPinned
	r.Unpins += st.PagesUnpinned
	r.PinTime += st.PinTime
	r.UnpinTime += st.UnpinTime
	r.CheckTime += st.CheckTime
}

// interrupt is the interrupt-per-miss baseline (§6.2): no user-level
// check, so the host side of a record is empty, and every cache miss
// interrupts the host to pin and install.
type interrupt struct {
	r       *run
	mech    *intrbase.Mechanism
	lookups int64
}

func newInterrupt(r *run) (mechanism, int, error) {
	mech, err := intrbase.NewWith(r.host, r.nic, r.cfg.cacheConfig(), r.scr.storage())
	if err != nil {
		return nil, 0, err
	}
	mech.SetTap(r.tap)
	m := &r.scr.interrupt
	*m = interrupt{r: r, mech: mech}
	return m, 1, nil
}

func (m *interrupt) attach(i int, proc *hostos.Process) error {
	return m.mech.RegisterWith(proc, m.r.scr.libScratch(i))
}

func (m *interrupt) post(int, trace.Record) error {
	m.lookups++
	return nil
}

func (m *interrupt) translate(pid units.ProcID, vpns []units.VPN, infos []core.TranslateInfo) error {
	for i, vpn := range vpns {
		_, hit, err := m.mech.Translate(pid, vpn)
		if err != nil {
			return err
		}
		infos[i] = core.TranslateInfo{Hit: hit}
	}
	return nil
}

func (m *interrupt) finish(res *Result) {
	st := m.mech.Stats()
	res.Lookups = m.lookups
	res.NIMisses = st.Misses
	res.Pins = st.PagesPinned
	res.Unpins = st.PagesUnpinned
	res.PinTime = st.HandlerTime
}

// perProcess is the per-process UTLB (§3.1): the host side finds (or
// pins and installs, evicting when the table is full) each page's slot
// in the process' SRAM table, and the firmware indexes that table
// directly — one probe, never a miss.
type perProcess struct {
	r     *run
	drv   *core.Driver
	utlbs []*core.PerProcessUTLB // by process slot
	// The record being replayed: its process' table and the slots of
	// its pages not yet translated (the loop dispatches them in order).
	cur     *core.PerProcessUTLB
	indices []int
}

// validateTables rejects what a directly indexed table has no way to
// honour: a cache geometry, a miss prefetch, pre-pinning and batching.
func validateTables(cfg Config) error {
	if cfg.CacheEntries < 1 || cfg.Ways != 1 || cfg.IndexOffset ||
		cfg.Prefetch != 1 || cfg.Prepin != 1 || cfg.BatchPages != 1 {
		return errors.New("per-process tables are sized by CacheEntries ≥ 1 and indexed directly: " +
			"Ways, Prefetch, Prepin and BatchPages must be 1 and IndexOffset off")
	}
	return nil
}

func newPerProcess(r *run) (mechanism, int, error) {
	// The driver builds its Shared UTLB-Cache regardless; this design
	// never probes it, so the smallest one will do.
	drv, err := core.NewDriverWith(r.host, r.nic, tlbcache.Config{Entries: 16, Ways: 1}, r.scr.storage())
	if err != nil {
		return nil, 0, err
	}
	drv.SetTap(r.tap)
	m := &r.scr.perProcess
	*m = perProcess{r: r, drv: drv, utlbs: m.utlbs[:0]}
	return m, 1, nil
}

func (m *perProcess) attach(i int, proc *hostos.Process) error {
	cfg := m.r.cfg
	u, err := core.NewPerProcessUTLB(m.drv, proc, cfg.CacheEntries,
		core.LibConfig{Policy: cfg.Policy, PolicySeed: cfg.Seed})
	m.utlbs = append(m.utlbs, u)
	return err
}

func (m *perProcess) post(i int, rec trace.Record) (err error) {
	m.cur = m.utlbs[i]
	m.indices, err = m.cur.Lookup(rec.VA, int(rec.Bytes))
	return err
}

func (m *perProcess) translate(pid units.ProcID, vpns []units.VPN, infos []core.TranslateInfo) error {
	for i := range vpns {
		m.cur.Translate(m.indices[i])
		infos[i] = core.TranslateInfo{Hit: true, Probes: 1}
	}
	m.indices = m.indices[len(vpns):]
	return nil
}

func (m *perProcess) finish(res *Result) {
	for _, u := range m.utlbs {
		res.addLib(u.Stats())
	}
}
