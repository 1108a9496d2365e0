package core

import (
	"errors"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// rig is a fully wired single-node test bench: host, NIC, driver.
type rig struct {
	host *hostos.Host
	nic  *nicsim.NIC
	drv  *Driver
}

func newRig(t *testing.T, cacheEntries int) *rig {
	t.Helper()
	host := hostos.New(0, 64*units.MB, hostos.DefaultCosts())
	nicClock := units.NewClock()
	b := bus.New(host.Memory(), nicClock, bus.DefaultCosts())
	nic := nicsim.New(0, units.MB, nicClock, b, nicsim.DefaultCosts())
	drv, err := NewDriver(host, nic, tlbcache.Config{Entries: cacheEntries, Ways: 1, IndexOffset: true})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{host: host, nic: nic, drv: drv}
}

func (r *rig) spawnLib(t *testing.T, pid units.ProcID, pinLimit int, cfg LibConfig) *Lib {
	t.Helper()
	proc, err := r.host.Spawn(pid, "app", vm.NewSpace(pid, r.host.Memory(), pinLimit))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLib(r.drv, proc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLookupPinsAndInstalls(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})

	va := units.VAddr(0x10000)
	if err := lib.Lookup(va, 2*units.PageSize); err != nil {
		t.Fatal(err)
	}
	st := lib.Stats()
	if st.Lookups != 1 || st.CheckMisses != 1 || st.PagesPinned != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Pages pinned in the OS and installed in the table.
	tbl := r.drv.TableOf(1)
	for _, vpn := range []units.VPN{va.PageOf(), va.PageOf() + 1} {
		if !lib.Proc().Space().Pinned(vpn) {
			t.Errorf("page %#x not pinned", vpn)
		}
		if _, valid := tbl.Lookup(vpn); !valid {
			t.Errorf("page %#x not installed", vpn)
		}
	}
	// Second lookup: check hit, no new pins.
	if err := lib.Lookup(va, 2*units.PageSize); err != nil {
		t.Fatal(err)
	}
	st = lib.Stats()
	if st.Lookups != 2 || st.CheckMisses != 1 || st.PagesPinned != 2 {
		t.Errorf("after hit: %+v", st)
	}
}

func TestLookupZeroBytes(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	if err := lib.Lookup(0, 0); err != nil {
		t.Fatal(err)
	}
	if lib.Stats().Lookups != 0 {
		t.Error("zero-byte lookup counted")
	}
}

func TestTranslateHitAndMiss(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 1)

	va := units.VAddr(0x40000)
	if err := lib.Lookup(va, units.PageSize); err != nil {
		t.Fatal(err)
	}
	vpn := va.PageOf()

	// First NIC translate: cold cache -> miss, fetched from host table.
	pfn1, info := tr.Translate(1, vpn)
	if info.Hit || info.Garbage || info.Fetched != 1 {
		t.Errorf("first translate info = %+v", info)
	}
	// Second: hit.
	pfn2, info := tr.Translate(1, vpn)
	if !info.Hit || pfn1 != pfn2 {
		t.Errorf("second translate = %d vs %d, %+v", pfn2, pfn1, info)
	}
	want, _ := lib.Proc().Space().Translate(vpn)
	if pfn1 != want {
		t.Errorf("translated to %d, OS says %d", pfn1, want)
	}
	if c := r.drv.Cache(); c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestTranslateUnpinnedYieldsGarbage(t *testing.T) {
	r := newRig(t, 1024)
	r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 1)
	pfn, info := tr.Translate(1, 0x999)
	if !info.Garbage || pfn != r.drv.Garbage() {
		t.Errorf("unpinned page translated to %d, %+v", pfn, info)
	}
	// Unknown process: also garbage, never a crash.
	pfn, info = tr.Translate(42, 0)
	if !info.Garbage || pfn != r.drv.Garbage() {
		t.Errorf("unknown pid = %d, %+v", pfn, info)
	}
}

func TestUnpinInvalidatesEverywhere(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 1)

	va := units.VAddr(0x1000)
	vpn := va.PageOf()
	lib.Lookup(va, 8)
	tr.Translate(1, vpn) // cache it

	if err := r.drv.IoctlUnpin(lib.Proc(), []units.VPN{vpn}); err != nil {
		t.Fatal(err)
	}
	// Cache copy gone; translation reverts to garbage.
	pfn, info := tr.Translate(1, vpn)
	if info.Hit || !info.Garbage || pfn != r.drv.Garbage() {
		t.Errorf("after unpin: %d %+v", pfn, info)
	}
}

func TestEvictionUnderPinQuota(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 4, LibConfig{Policy: LRU}) // 4-page quota

	for i := 0; i < 8; i++ {
		va := units.VAddr(i) * units.PageSize
		if err := lib.Lookup(va, units.PageSize); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	st := lib.Stats()
	if st.PagesPinned != 8 {
		t.Errorf("PagesPinned = %d", st.PagesPinned)
	}
	if st.PagesUnpinned != 4 {
		t.Errorf("PagesUnpinned = %d, want 4 (LRU evictions)", st.PagesUnpinned)
	}
	if lib.PinnedPages() != 4 {
		t.Errorf("PinnedPages = %d", lib.PinnedPages())
	}
	// LRU: pages 0-3 evicted, 4-7 resident.
	for i := units.VPN(0); i < 4; i++ {
		if lib.Pinned(i) {
			t.Errorf("page %d should have been evicted", i)
		}
	}
	for i := units.VPN(4); i < 8; i++ {
		if !lib.Pinned(i) {
			t.Errorf("page %d should be resident", i)
		}
	}
}

func TestLockedPagesSurviveEviction(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 2, LibConfig{Policy: LRU})

	lib.Lookup(0, units.PageSize) // page 0
	lib.Lock(0, units.PageSize)   // outstanding send on page 0
	lib.Lookup(units.PageSize, units.PageSize)
	// Quota full; page 0 locked, so page 1 must be the victim.
	if err := lib.Lookup(2*units.PageSize, units.PageSize); err != nil {
		t.Fatal(err)
	}
	if !lib.Pinned(0) {
		t.Error("locked page evicted")
	}
	if lib.Pinned(1) {
		t.Error("unlocked page survived over locked one")
	}
	lib.Unlock(0, units.PageSize)
}

// The lookup's own pinned pages are locked before it evicts (§3.1),
// however late the library takes the lock. Under MRU the buffer's
// pinned page, just touched by the check, is the policy's first choice,
// so only the lock sends the eviction outside the buffer.
func TestEvictionSparesTheTriggeringBuffer(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 3, LibConfig{Policy: MRU})
	for _, vpn := range []units.VPN{10, 11, 0} {
		if err := lib.Lookup(units.VAddr(vpn)*units.PageSize, units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Lookup(0, 2*units.PageSize); err != nil { // pages 0 and 1, quota full
		t.Fatal(err)
	}
	for vpn, want := range map[units.VPN]bool{0: true, 1: true, 10: true, 11: false} {
		if lib.Pinned(vpn) != want || lib.Proc().Space().Pinned(vpn) != want {
			t.Errorf("page %d pinned = %v, want %v: the eviction must take page 11, outside the lookup's buffer",
				vpn, lib.Pinned(vpn), want)
		}
	}
	if m := lib.policy.meta(0); m != nil && m.locks != 0 {
		t.Errorf("page 0 holds %d locks after the lookup returned", m.locks)
	}
}

func TestAllLockedReportsNoVictim(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 1, LibConfig{Policy: LRU})
	lib.Lookup(0, units.PageSize)
	lib.Lock(0, units.PageSize)
	err := lib.Lookup(units.PageSize, units.PageSize)
	if !errors.Is(err, ErrNoVictim) {
		t.Errorf("err = %v, want ErrNoVictim", err)
	}
}

func TestPrepinPinsContiguousPages(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU, Prepin: 16})
	if err := lib.Lookup(0, units.PageSize); err != nil {
		t.Fatal(err)
	}
	st := lib.Stats()
	if st.PagesPinned != 16 {
		t.Errorf("PagesPinned = %d, want 16", st.PagesPinned)
	}
	// The next 15 lookups are check hits.
	for i := 1; i < 16; i++ {
		lib.Lookup(units.VAddr(i)*units.PageSize, units.PageSize)
	}
	if st := lib.Stats(); st.CheckMisses != 1 {
		t.Errorf("CheckMisses = %d, want 1", st.CheckMisses)
	}
}

func TestPrepinBatchIsCheaperPerPage(t *testing.T) {
	// §6.5: pinning a 16-page buffer at once is much cheaper than 16
	// one-page ioctls.
	r1 := newRig(t, 1024)
	one := r1.spawnLib(t, 1, 0, LibConfig{Policy: LRU, Prepin: 1})
	for i := 0; i < 16; i++ {
		one.Lookup(units.VAddr(i)*units.PageSize, units.PageSize)
	}
	r2 := newRig(t, 1024)
	batch := r2.spawnLib(t, 1, 0, LibConfig{Policy: LRU, Prepin: 16})
	for i := 0; i < 16; i++ {
		batch.Lookup(units.VAddr(i)*units.PageSize, units.PageSize)
	}
	pinTime := func(r *rig) units.Time {
		return r.host.Clock().Sum(units.RowPinSyscall, units.RowPin, units.RowPinPage)
	}
	if pinTime(r2) >= pinTime(r1) {
		t.Errorf("prepin total %v not cheaper than one-at-a-time %v", pinTime(r2), pinTime(r1))
	}
	if one.Stats().PagesPinned != 16 || batch.Stats().PagesPinned != 16 {
		t.Errorf("pinned %d and %d pages, want 16 each", one.Stats().PagesPinned, batch.Stats().PagesPinned)
	}
}

func TestPrefetchFillsNeighbours(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 8)

	// Pin 8 contiguous pages.
	if err := lib.Lookup(0, 8*units.PageSize); err != nil {
		t.Fatal(err)
	}
	// One miss fetches all 8; the other 7 hit.
	if _, info := tr.Translate(1, 0); info.Hit || info.Fetched != 8 {
		t.Fatalf("first translate: %+v", info)
	}
	for vpn := units.VPN(1); vpn < 8; vpn++ {
		if _, info := tr.Translate(1, vpn); !info.Hit {
			t.Errorf("prefetched page %d missed", vpn)
		}
	}
	if got := r.drv.Cache().Misses(); got != 1 {
		t.Errorf("Misses = %d, want 1", got)
	}
}

func TestPrefetchDoesNotCacheUnpinnedEntries(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 8)

	// Pin only page 0; pages 1..7 stay garbage in the table.
	lib.Lookup(0, units.PageSize)
	tr.Translate(1, 0)
	// Page 1 must miss (it was fetched but not cached), and later
	// pinning must be visible immediately.
	if _, info := tr.Translate(1, 1); info.Hit || !info.Garbage {
		t.Fatalf("unpinned neighbour: %+v", info)
	}
	lib.Lookup(units.PageSize, units.PageSize)
	if pfn, info := tr.Translate(1, 1); info.Garbage {
		t.Errorf("freshly pinned page still garbage: %d %+v", pfn, info)
	}
}

func TestPrefetchClampsAtL2Boundary(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 32)

	last := units.VPN(L2Entries - 1)
	lib.Lookup(last.Addr(), units.PageSize)
	if _, info := tr.Translate(1, last); info.Fetched != 1 {
		t.Errorf("fetch crossed L2 boundary: %+v", info)
	}
}

func TestDriverRegisterTwice(t *testing.T) {
	r := newRig(t, 1024)
	lib := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	if _, err := NewLib(r.drv, lib.Proc(), LibConfig{Policy: LRU}); err == nil {
		t.Error("double registration accepted")
	}
}

func TestIoctlPinUnknownPID(t *testing.T) {
	r := newRig(t, 1024)
	proc, _ := r.host.Spawn(9, "loner", vm.NewSpace(9, r.host.Memory(), 0))
	if _, err := r.drv.IoctlPin(proc, []units.VPN{0}); err == nil {
		t.Error("pin for unregistered pid accepted")
	}
	if err := r.drv.IoctlUnpin(proc, []units.VPN{0}); err == nil {
		t.Error("unpin for unregistered pid accepted")
	}
}

func TestSharedCacheMultiprogramming(t *testing.T) {
	// Two processes with identical VPN footprints share the cache;
	// index offsetting keeps them from evicting each other in a
	// direct-mapped cache larger than their combined footprint.
	r := newRig(t, 1024)
	libA := r.spawnLib(t, 1, 0, LibConfig{Policy: LRU})
	libB := r.spawnLib(t, 2, 0, LibConfig{Policy: LRU})
	tr := NewTranslator(r.drv, 1)

	for i := 0; i < 64; i++ {
		va := units.VAddr(i) * units.PageSize
		libA.Lookup(va, units.PageSize)
		libB.Lookup(va, units.PageSize)
		tr.Translate(1, va.PageOf())
		tr.Translate(2, va.PageOf())
	}
	missesCold := r.drv.Cache().Misses() // compulsory only if no conflicts
	// Re-touch everything: should be all hits.
	for i := 0; i < 64; i++ {
		tr.Translate(1, units.VPN(i))
		tr.Translate(2, units.VPN(i))
	}
	if got := r.drv.Cache().Misses(); got != missesCold {
		t.Errorf("steady state still missing: %d -> %d", missesCold, got)
	}
}
