package sim

import (
	"errors"
	"slices"
	"testing"

	"utlb/internal/core"
	"utlb/internal/trace"
	"utlb/internal/units"
)

// newPP builds the per-process design with tables of the given size
// and attaches process 1.
func newPP(t *testing.T, entries, pinLimit int) (*run, *perProcess) {
	t.Helper()
	c := designCfg(PerProcess, entries)
	c.PinLimitPages = pinLimit
	r, m := newDesignRig(t, c, 1)
	return r, m.(*perProcess)
}

// lookup posts a record of process 1 covering [va, va+nbytes) and
// returns the table slots it posted with it.
func lookup(m *perProcess, va units.VAddr, nbytes int) ([]int, error) {
	err := m.post(0, trace.Record{PID: 1, VA: va, Bytes: int32(nbytes)})
	return slices.Clone(m.indices), err
}

// frameAt is what the firmware resolves table slot idx to.
func frameAt(r *run, m *perProcess, idx int) units.PFN {
	m.indices, m.first = append(m.indices[:0], idx), 0
	pfn, _, _ := translateOne(r, m, 1, 0)
	return pfn
}

func TestPerProcessLookupInstalls(t *testing.T) {
	r, m := newPP(t, 64, 0)
	idx, err := lookup(m, 0, 2*units.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] < 0 || idx[1] < 0 {
		t.Fatalf("indices = %v", idx)
	}
	if res := finished(m); res.Lookups != 1 || res.CheckMisses != 1 || res.Pins != 2 {
		t.Errorf("counters = %+v", res)
	}
	// The posted slots resolve on the NIC to the OS translations.
	space := r.host.Process(1).Space()
	for _, vpn := range []units.VPN{0, 1} {
		want, _ := space.Translate(vpn)
		if got, hit, _ := translateOne(r, m, 1, vpn); got != want || !hit {
			t.Errorf("translate page %d (slot %d) = %d, hit %v; want %d", vpn, idx[vpn], got, hit, want)
		}
	}
	// Repeat lookup returns the same indices, no new pins.
	idx2, _ := lookup(m, 0, 2*units.PageSize)
	if !slices.Equal(idx2, idx) {
		t.Errorf("indices changed: %v -> %v", idx, idx2)
	}
	if finished(m).Pins != 2 {
		t.Error("re-lookup pinned again")
	}
}

func TestPerProcessCapacityEviction(t *testing.T) {
	r, m := newPP(t, 4, 0) // tiny table forces capacity misses
	for i := 0; i < 8; i++ {
		if _, err := lookup(m, units.VAddr(i)*units.PageSize, units.PageSize); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if res := finished(m); res.Unpins != 4 {
		t.Errorf("Unpins = %d, want 4", res.Unpins)
	}
	// Eviction also unpins — the per-process design cannot keep
	// translations alive outside its table, unlike Hierarchical-UTLB.
	if got := r.host.Process(1).Space().PinnedPages(); got != 4 {
		t.Errorf("OS pinned = %d, want 4", got)
	}
}

func TestPerProcessPinQuotaEviction(t *testing.T) {
	r, m := newPP(t, 64, 2)
	for i := 0; i < 4; i++ {
		if _, err := lookup(m, units.VAddr(i)*units.PageSize, units.PageSize); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if got := r.host.Process(1).Space().PinnedPages(); got != 2 {
		t.Errorf("pinned = %d", got)
	}
}

func TestPerProcessGarbageIndexes(t *testing.T) {
	r, m := newPP(t, 8, 0)
	// Out-of-range and never-installed indices resolve to the garbage
	// frame — the §4.2 scheme that saves the NIC from validating
	// user-submitted indices.
	for _, idx := range []int{-1, 3, 8, 100} {
		if got := frameAt(r, m, idx); got != m.garbage {
			t.Errorf("slot %d resolves to %d, want garbage %d", idx, got, m.garbage)
		}
	}
}

func TestPerProcessSRAMAccounting(t *testing.T) {
	r, m := newDesignRig(t, designCfg(PerProcess, 128))
	free := r.nic.SRAMFree()
	if err := attachNext(t, r, m, 1); err != nil {
		t.Fatal(err)
	}
	if want := free - 128*4; r.nic.SRAMFree() != want { // the table and nothing else
		t.Errorf("SRAMFree = %d, want %d", r.nic.SRAMFree(), want)
	}
}

// Tables that together fill the NIC's 1 MB of SRAM exactly still run:
// the design reserves its tables and nothing else, no page directory
// and no translation cache.
func TestPerProcessTablesFillSRAMExactly(t *testing.T) {
	const procs, entries = 4, 65536 // 4 × 65,536 entries × 4 B = 1 MB
	var tr trace.Trace
	for pid := units.ProcID(1); pid <= procs; pid++ {
		tr = append(tr, trace.Record{Time: units.Time(pid), PID: pid, Bytes: units.PageSize})
	}
	res, err := Run(tr, designCfg(PerProcess, entries))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups != procs || res.Pins != procs {
		t.Errorf("Lookups = %d, Pins = %d; want %d each", res.Lookups, res.Pins, procs)
	}
}

func TestPerProcessTableSRAMExhaustion(t *testing.T) {
	// Many processes demanding big static tables exhaust NIC SRAM —
	// the motivation for the Shared UTLB-Cache (§3.2).
	r, m := newDesignRig(t, designCfg(PerProcess, 8192))
	var lastErr error
	for pid := units.ProcID(1); pid <= 64 && lastErr == nil; pid++ {
		lastErr = attachNext(t, r, m, pid)
	}
	if lastErr == nil {
		t.Error("64 x 8K-entry static tables fit in 1 MB SRAM; expected exhaustion")
	}
}

func TestPerProcessBadEntries(t *testing.T) {
	tr := trace.Trace{{Time: 0, PID: 1, VA: 0, Bytes: units.PageSize}}
	for _, entries := range []int{0, -1} {
		c := designCfg(PerProcess, entries)
		if err := c.Validate(); err == nil {
			t.Errorf("%d-entry table accepted by Validate", entries)
		}
		if _, err := Run(tr, c); err == nil {
			t.Errorf("%d-entry table accepted by Run", entries)
		}
	}
}

func TestPerProcessNoVictim(t *testing.T) {
	_, m := newPP(t, 1, 0)
	if _, err := lookup(m, 0, units.PageSize); err != nil {
		t.Fatal(err)
	}
	m.slots[0].policy.Lock(0)
	if _, err := lookup(m, units.PageSize, units.PageSize); !errors.Is(err, core.ErrNoVictim) {
		t.Errorf("err = %v, want ErrNoVictim", err)
	}
}

func TestPerProcessFragmentation(t *testing.T) {
	// A fresh table hands out descending free slots, so a multi-page
	// buffer's indices are non-consecutive from the start; after
	// churny single-page evictions, later multi-page lookups stay
	// scattered. Hierarchical-UTLB has no such indices at all.
	_, m := newPP(t, 8, 0)
	s := &m.slots[0]
	if s.fragmentation() != 0 {
		t.Error("fragmentation before any lookup")
	}
	if _, err := lookup(m, 0, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	if frag := s.fragmentation(); frag < 0 || frag > 1 {
		t.Fatalf("fragmentation out of range: %v", frag)
	}
	// Fill the table (pages 0-7 in slots 0-7), then touch the odd
	// pages so the even ones become eviction victims. The next
	// multi-page buffer inherits the scattered even slots.
	if _, err := lookup(m, 4*units.PageSize, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	for _, pg := range []units.VAddr{1, 3, 5, 7} {
		if _, err := lookup(m, pg*units.PageSize, units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lookup(m, 64*units.PageSize, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.fragmentation() == 0 {
		t.Error("no fragmentation recorded after churn")
	}
}
