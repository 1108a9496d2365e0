package hostos

import (
	"utlb/internal/obs"
	"utlb/internal/units"
)

// This file models the OS page reclaimer (the paging/swapping activity
// of §1: "As an I/O device, the network interface has no control over
// paging and swapping in the operating system. Therefore, the
// application buffer must be explicitly pinned"). Reclaim takes frames
// back from unpinned pages; pinned pages are untouchable — the
// guarantee the UTLB's pin ioctl buys for in-flight DMA.

// ReclaimSpace is the extra capability the reclaimer needs from an
// address space beyond Space.
type ReclaimSpace interface {
	Space
	// MappedVPNs lists the space's mapped pages in ascending order:
	// Reclaim evicts in the order given, and that order is a result.
	MappedVPNs() []units.VPN
	// Evict unmaps an unpinned page, freeing its frame.
	Evict(units.VPN) error
}

// Reclaim frees up to want frames by evicting unpinned pages across
// all processes (round-robin by PID for determinism). It reports how
// many frames were actually reclaimed. Pinned pages are never touched.
//
// The pin path (hostos.go pinOne) invokes Reclaim when an attempt hits
// frame exhaustion, then retries — the degraded-but-correct regime the
// paper's pin economy is built for: paging pressure may slow a pin
// down, but it only fails once nothing evictable remains.
func (h *Host) Reclaim(want int) int {
	if want <= 0 {
		return 0
	}
	start := h.clock.Now()
	// Deterministic order: h.procs is kept in ascending PID.
	reclaimed, scanned := 0, 0
	for _, p := range h.procs {
		if reclaimed >= want {
			break
		}
		rs, ok := p.space.(ReclaimSpace)
		if !ok {
			continue
		}
		for _, vpn := range rs.MappedVPNs() {
			if reclaimed >= want {
				break
			}
			scanned++
			if rs.Pinned(vpn) {
				continue
			}
			if err := rs.Evict(vpn); err == nil {
				reclaimed++
			}
		}
	}
	// The scan itself is work: a pass over pinned-solid memory walks
	// every mapped page and frees nothing, but still burns a base cost
	// plus a per-page metadata probe. Only evicted frames pay the
	// additional per-frame unmapping work.
	h.clock.Advance(h.costs.ReclaimBase +
		units.Time(scanned)*h.costs.ReclaimPerScanned +
		units.Time(reclaimed)*h.costs.PinPerPage)
	h.reclaims++
	h.framesReclaimed += int64(reclaimed)
	h.tap.Span(obs.KindReclaim, start, h.clock.Now()-start, 0, uint64(reclaimed), uint64(want))
	return reclaimed
}

// Reclaims reports how many reclaimer passes have run.
func (h *Host) Reclaims() int64 { return h.reclaims }

// FramesReclaimed reports the cumulative frames taken back.
func (h *Host) FramesReclaimed() int64 { return h.framesReclaimed }

// PinRetries reports how many pin attempts were retried after a
// reclaim pass.
func (h *Host) PinRetries() int64 { return h.pinRetries }

// MemoryPressure reports the fraction of physical frames in use.
func (h *Host) MemoryPressure() float64 {
	total := int(h.mem.NumFrames())
	if total == 0 {
		return 0
	}
	return float64(total-h.mem.FreeFrames()) / float64(total)
}
