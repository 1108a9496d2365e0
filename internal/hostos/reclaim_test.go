package hostos

import (
	"testing"

	"utlb/internal/units"
	"utlb/internal/vm"
)

func TestReclaimSkipsPinnedPages(t *testing.T) {
	h := New(0, 64*units.PageSize, DefaultCosts())
	p := spawn(t, h, 1, 0)
	sp := p.Space().(*vm.Space)

	// Map 8 pages; pin 3 of them.
	for vpn := units.VPN(0); vpn < 8; vpn++ {
		if _, err := sp.Touch(vpn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.PinPages(p, []units.VPN{1, 3, 5}); err != nil {
		t.Fatal(err)
	}

	got := h.Reclaim(100) // ask for more than available
	if got != 5 {
		t.Errorf("Reclaim = %d, want 5 (8 mapped - 3 pinned)", got)
	}
	for _, vpn := range []units.VPN{1, 3, 5} {
		if !sp.Pinned(vpn) {
			t.Errorf("pinned page %d lost its frame", vpn)
		}
		if _, err := sp.Translate(vpn); err != nil {
			t.Errorf("pinned page %d unmapped: %v", vpn, err)
		}
	}
	for _, vpn := range []units.VPN{0, 2, 4, 6, 7} {
		if _, err := sp.Translate(vpn); err == nil {
			t.Errorf("unpinned page %d survived reclaim", vpn)
		}
	}
}

func TestReclaimPartialAndZero(t *testing.T) {
	h := New(0, 64*units.PageSize, DefaultCosts())
	p := spawn(t, h, 1, 0)
	sp := p.Space().(*vm.Space)
	for vpn := units.VPN(0); vpn < 6; vpn++ {
		sp.Touch(vpn)
	}
	if got := h.Reclaim(2); got != 2 {
		t.Errorf("Reclaim(2) = %d", got)
	}
	if got := len(sp.MappedVPNs()); got != 4 {
		t.Errorf("mapped = %d, want 4", got)
	}
	if h.Reclaim(0) != 0 || h.Reclaim(-3) != 0 {
		t.Error("non-positive reclaim did work")
	}
}

// TestReclaimFailedScanStillCostsTime is the regression test for the
// free-scan bug: a pass over fully-pinned memory evicts nothing but
// must still charge the base cost plus the per-scanned-page probe —
// it walked every mapped page. Before the fix the cost was
// reclaimed * PinPerPage = 0, making an O(procs × pages) scan free.
func TestReclaimFailedScanStillCostsTime(t *testing.T) {
	h := New(0, 64*units.PageSize, DefaultCosts())
	p := spawn(t, h, 1, 0)
	sp := p.Space().(*vm.Space)
	const pages = 8
	vpns := make([]units.VPN, 0, pages)
	for vpn := units.VPN(0); vpn < pages; vpn++ {
		if _, err := sp.Touch(vpn); err != nil {
			t.Fatal(err)
		}
		vpns = append(vpns, vpn)
	}
	if _, err := h.PinPages(p, vpns); err != nil {
		t.Fatal(err)
	}

	before := h.Clock().Now()
	if got := h.Reclaim(4); got != 0 {
		t.Fatalf("Reclaim over pinned-solid memory freed %d frames", got)
	}
	elapsed := h.Clock().Now() - before
	costs := h.Costs()
	want := costs.ReclaimBase + pages*costs.ReclaimPerScanned
	if elapsed != want {
		t.Errorf("failed scan charged %v, want %v (base + %d scanned pages)", elapsed, want, pages)
	}
	if elapsed <= 0 {
		t.Error("failed reclaim scan was free")
	}
}

// TestReclaimChargesScanAndEvictWork pins the successful-pass cost
// model: base + scanned-page probes + per-evicted-frame work, with the
// scan stopping once the request is satisfied.
func TestReclaimChargesScanAndEvictWork(t *testing.T) {
	h := New(0, 64*units.PageSize, DefaultCosts())
	p := spawn(t, h, 1, 0)
	sp := p.Space().(*vm.Space)
	for vpn := units.VPN(0); vpn < 6; vpn++ {
		if _, err := sp.Touch(vpn); err != nil {
			t.Fatal(err)
		}
	}
	before := h.Clock().Now()
	if got := h.Reclaim(2); got != 2 {
		t.Fatalf("Reclaim(2) = %d", got)
	}
	costs := h.Costs()
	// VPNs scan in ascending order and nothing is pinned, so the pass
	// examines exactly 2 pages before satisfying the request.
	want := costs.ReclaimBase + 2*costs.ReclaimPerScanned + 2*costs.PinPerPage
	if got := h.Clock().Now() - before; got != want {
		t.Errorf("successful pass charged %v, want %v", got, want)
	}
}

func TestReclaimAcrossProcesses(t *testing.T) {
	h := New(0, 64*units.PageSize, DefaultCosts())
	p1 := spawn(t, h, 1, 0)
	p2 := spawn(t, h, 2, 0)
	p1.Space().(*vm.Space).Touch(0)
	p2.Space().(*vm.Space).Touch(0)
	if got := h.Reclaim(10); got != 2 {
		t.Errorf("Reclaim across procs = %d", got)
	}
}
