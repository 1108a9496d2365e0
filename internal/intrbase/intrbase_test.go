package intrbase

import (
	"errors"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

type rig struct {
	host *hostos.Host
	nic  *nicsim.NIC
	m    *Mechanism
}

func newRig(t *testing.T, cacheEntries, pinLimit int, pids ...units.ProcID) *rig {
	t.Helper()
	host := hostos.New(0, 64*units.MB, hostos.DefaultCosts())
	clk := units.NewClock()
	b := bus.New(host.Memory(), clk, bus.DefaultCosts())
	nic := nicsim.New(0, units.MB, clk, b, nicsim.DefaultCosts())
	m, err := New(host, nic, tlbcache.Config{Entries: cacheEntries, Ways: 1, IndexOffset: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range pids {
		proc, err := host.Spawn(pid, "app", vm.NewSpace(pid, host.Memory(), pinLimit))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(proc); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{host: host, nic: nic, m: m}
}

func TestMissInterruptsAndPins(t *testing.T) {
	r := newRig(t, 64, 0, 1)
	pfn, _, err := r.m.Translate(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.host.InterruptCount() != 1 {
		t.Errorf("InterruptCount = %d", r.host.InterruptCount())
	}
	st := r.m.Stats()
	if st.Lookups != 1 || st.Misses != 1 || st.PagesPinned != 1 {
		t.Errorf("stats = %+v", st)
	}
	want, _ := r.host.Process(1).Space().Translate(10)
	if pfn != want {
		t.Errorf("pfn = %d, want %d", pfn, want)
	}
	// Hit path: no further interrupt.
	if _, _, err := r.m.Translate(1, 10); err != nil {
		t.Fatal(err)
	}
	if r.host.InterruptCount() != 1 {
		t.Error("hit raised an interrupt")
	}
}

func TestEveryMissCostsAnInterrupt(t *testing.T) {
	r := newRig(t, 64, 0, 1)
	for i := 0; i < 20; i++ {
		r.m.Translate(1, units.VPN(i))
	}
	if r.host.InterruptCount() != 20 {
		t.Errorf("interrupts = %d, want 20", r.host.InterruptCount())
	}
	if r.m.Stats().HandlerTime == 0 {
		t.Error("handler time not charged")
	}
}

func TestEvictionUnpinsImmediately(t *testing.T) {
	// Cache of 4 entries, touch 8 pages: 4 evictions, each an unpin.
	r := newRig(t, 4, 0, 1)
	for i := 0; i < 8; i++ {
		if _, _, err := r.m.Translate(1, units.VPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.m.Stats()
	if st.PagesUnpinned != 4 {
		t.Errorf("PagesUnpinned = %d, want 4", st.PagesUnpinned)
	}
	// Pinned set equals cached set.
	if got := r.host.Process(1).Space().PinnedPages(); got != 4 {
		t.Errorf("OS pinned = %d, want 4 (== cache occupancy)", got)
	}
	if r.m.Cache().Occupancy() != 4 {
		t.Errorf("cache occupancy = %d", r.m.Cache().Occupancy())
	}
}

func TestReMissRePins(t *testing.T) {
	// A page evicted (and unpinned) must be re-pinned when it misses
	// again — the churn that makes the baseline expensive.
	r := newRig(t, 4, 0, 1)
	for i := 0; i < 5; i++ { // page 0 evicted by page 4
		r.m.Translate(1, units.VPN(i))
	}
	r.m.Translate(1, 0)
	st := r.m.Stats()
	if st.PagesPinned != 6 {
		t.Errorf("PagesPinned = %d, want 6", st.PagesPinned)
	}
}

func TestPinQuotaForcesVictim(t *testing.T) {
	r := newRig(t, 64, 2, 1) // cache bigger than the 2-page pin quota
	for i := 0; i < 4; i++ {
		if _, _, err := r.m.Translate(1, units.VPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.host.Process(1).Space().PinnedPages(); got != 2 {
		t.Errorf("pinned = %d, want quota 2", got)
	}
	st := r.m.Stats()
	if st.PagesUnpinned != 2 {
		t.Errorf("PagesUnpinned = %d", st.PagesUnpinned)
	}
}

func TestLockedPageNotForcedOut(t *testing.T) {
	r := newRig(t, 64, 1, 1)
	r.m.Translate(1, 0)
	r.m.Lock(1, 0)
	if _, _, err := r.m.Translate(1, 1); !errors.Is(err, core.ErrNoVictim) {
		t.Errorf("err = %v, want ErrNoVictim", err)
	}
	r.m.Unlock(1, 0)
	if _, _, err := r.m.Translate(1, 1); err != nil {
		t.Errorf("after unlock: %v", err)
	}
}

func TestCrossProcessEviction(t *testing.T) {
	// In the shared cache, process 2's install can evict (and unpin)
	// process 1's page.
	r := newRig(t, 4, 0, 1, 2)
	for i := 0; i < 4; i++ {
		r.m.Translate(1, units.VPN(i))
	}
	for i := 0; i < 4; i++ {
		r.m.Translate(2, units.VPN(i))
	}
	p1 := r.host.Process(1).Space().PinnedPages()
	p2 := r.host.Process(2).Space().PinnedPages()
	if p1+p2 != 4 {
		t.Errorf("total pinned %d+%d != cache size 4", p1, p2)
	}
	if p1 == 4 {
		t.Error("process 2 evicted nothing of process 1")
	}
}

func TestUnknownPID(t *testing.T) {
	r := newRig(t, 4, 0, 1)
	if _, _, err := r.m.Translate(9, 0); err == nil {
		t.Error("unknown pid accepted")
	}
	if err := r.m.Register(r.host.Process(1)); err == nil {
		t.Error("double register accepted")
	}
}

func TestMissCostExceedsUTLBMissCost(t *testing.T) {
	// The core claim: an interrupt-based miss (≈10 µs dispatch + pin)
	// costs an order of magnitude more than a UTLB cache-fill DMA
	// (≈2 µs).
	r := newRig(t, 64, 0, 1)
	h0 := r.host.Clock().Now()
	r.m.Translate(1, 0)
	hostCost := (r.host.Clock().Now() - h0).Micros()
	if hostCost < 10 {
		t.Errorf("interrupt miss host cost = %.1fus, expected > 10us", hostCost)
	}
}
