package sim

import (
	"errors"
	"testing"

	"utlb/internal/core"
	"utlb/internal/trace"
	"utlb/internal/units"
)

// newIntr builds the interrupt baseline with a direct-mapped, offset
// cache of the given size and attaches pids.
func newIntr(t *testing.T, cacheEntries, pinLimit int, pids ...units.ProcID) (*run, *interrupt) {
	t.Helper()
	c := cfg(Interrupt, cacheEntries)
	c.PinLimitPages = pinLimit
	r, m := newDesignRig(t, c, pids...)
	return r, m.(*interrupt)
}

func TestInterruptMissInterruptsAndPins(t *testing.T) {
	r, m := newIntr(t, 64, 0, 1)
	if err := m.post(0, trace.Record{PID: 1, VA: 10 * units.PageSize, Bytes: 8}); err != nil {
		t.Fatal(err)
	}
	pfn, hit, err := translateOne(r, m, 1, 10)
	if err != nil || hit {
		t.Fatalf("first translation: hit %v, err %v", hit, err)
	}
	if r.host.InterruptCount() != 1 {
		t.Errorf("InterruptCount = %d", r.host.InterruptCount())
	}
	if res := finished(m); res.Lookups != 1 || res.NIMisses != 1 || res.Pins != 1 {
		t.Errorf("counters = %+v", res)
	}
	want, _ := r.host.Process(1).Space().Translate(10)
	if pfn != want {
		t.Errorf("pfn = %d, want %d", pfn, want)
	}
	// Hit path: no further interrupt, the same frame.
	if pfn, hit, err := translateOne(r, m, 1, 10); err != nil || !hit || pfn != want {
		t.Errorf("second translation: pfn %d (want %d), hit %v, err %v", pfn, want, hit, err)
	}
	if r.host.InterruptCount() != 1 {
		t.Error("hit raised an interrupt")
	}
}

func TestInterruptEveryMissCostsAnInterrupt(t *testing.T) {
	r, m := newIntr(t, 64, 0, 1)
	for i := 0; i < 20; i++ {
		translateOne(r, m, 1, units.VPN(i))
	}
	if r.host.InterruptCount() != 20 {
		t.Errorf("interrupts = %d, want 20", r.host.InterruptCount())
	}
	if finished(m).PinTime == 0 {
		t.Error("handler time not charged")
	}
}

func TestInterruptEvictionUnpinsImmediately(t *testing.T) {
	// Cache of 4 entries, touch 8 pages: 4 evictions, each an unpin.
	r, m := newIntr(t, 4, 0, 1)
	space := r.host.Process(1).Space()
	for i := 0; i < 8; i++ {
		pfn, _, err := translateOne(r, m, 1, units.VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := space.Translate(units.VPN(i)); pfn != want {
			t.Errorf("page %d: pfn %d, want %d", i, pfn, want)
		}
	}
	if res := finished(m); res.Unpins != 4 {
		t.Errorf("Unpins = %d, want 4", res.Unpins)
	}
	// Pinned set equals cached set.
	if got := space.PinnedPages(); got != 4 {
		t.Errorf("OS pinned = %d, want 4 (== cache occupancy)", got)
	}
	if m.cache.Occupancy() != 4 {
		t.Errorf("cache occupancy = %d", m.cache.Occupancy())
	}
}

func TestInterruptReMissRePins(t *testing.T) {
	// A page evicted (and unpinned) must be re-pinned when it misses
	// again — the churn that makes the baseline expensive.
	r, m := newIntr(t, 4, 0, 1)
	for i := 0; i < 5; i++ { // page 0 evicted by page 4
		translateOne(r, m, 1, units.VPN(i))
	}
	translateOne(r, m, 1, 0)
	if res := finished(m); res.Pins != 6 {
		t.Errorf("Pins = %d, want 6", res.Pins)
	}
}

func TestInterruptPinQuotaForcesVictim(t *testing.T) {
	r, m := newIntr(t, 64, 2, 1) // cache bigger than the 2-page pin quota
	for i := 0; i < 4; i++ {
		if _, _, err := translateOne(r, m, 1, units.VPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.host.Process(1).Space().PinnedPages(); got != 2 {
		t.Errorf("pinned = %d, want quota 2", got)
	}
	if res := finished(m); res.Unpins != 2 {
		t.Errorf("Unpins = %d", res.Unpins)
	}
}

func TestInterruptLockedPageNotForcedOut(t *testing.T) {
	r, m := newIntr(t, 64, 1, 1)
	translateOne(r, m, 1, 0)
	m.procs[0].policy.Lock(0)
	if _, _, err := translateOne(r, m, 1, 1); !errors.Is(err, core.ErrNoVictim) {
		t.Errorf("err = %v, want ErrNoVictim", err)
	}
	m.procs[0].policy.Unlock(0)
	if _, _, err := translateOne(r, m, 1, 1); err != nil {
		t.Errorf("after unlock: %v", err)
	}
}

func TestInterruptCrossProcessEviction(t *testing.T) {
	// In the shared cache, process 2's install can evict (and unpin)
	// process 1's page.
	r, m := newIntr(t, 4, 0, 1, 2)
	for i := 0; i < 4; i++ {
		translateOne(r, m, 1, units.VPN(i))
	}
	for i := 0; i < 4; i++ {
		translateOne(r, m, 2, units.VPN(i))
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

func TestInterruptUnknownPID(t *testing.T) {
	r, m := newIntr(t, 4, 0, 1)
	if _, _, err := translateOne(r, m, 9, 0); err == nil {
		t.Error("a pid with no process slot was translated")
	}
}

func TestInterruptMissCostExceedsUTLBMissCost(t *testing.T) {
	// The core claim: an interrupt-based miss (≈10 µs dispatch + pin)
	// costs an order of magnitude more than a UTLB cache-fill DMA
	// (≈2 µs).
	r, m := newIntr(t, 64, 0, 1)
	h0 := r.host.Clock().Now()
	translateOne(r, m, 1, 0)
	if hostCost := (r.host.Clock().Now() - h0).Micros(); hostCost < 10 {
		t.Errorf("interrupt miss host cost = %.1fus, expected > 10us", hostCost)
	}
}
