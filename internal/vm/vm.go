// Package vm simulates per-process virtual memory: page tables mapping
// virtual pages to physical frames, demand allocation, and the page
// pinning facility that the UTLB device driver uses.
//
// Pinning is the heart of the paper's problem statement: a network
// interface DMAs physical memory and has no control over paging, so a
// user buffer must be pinned before transfer and the number of pages a
// process may pin must be bounded. Space enforces that bound and keeps
// pin counts so nested pins (e.g. a page in two in-flight transfers)
// stay resident until the last unpin.
package vm

import (
	"errors"
	"fmt"

	"utlb/internal/phys"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// Errors reported by Space operations.
var (
	// ErrPinLimit means the process has reached its pinned-page quota.
	// The UTLB user-level library reacts by evicting (unpinning) pages
	// chosen by its replacement policy and retrying.
	ErrPinLimit = errors.New("vm: pinned-page limit reached")
	// ErrNotMapped means the virtual page has never been touched.
	ErrNotMapped = errors.New("vm: page not mapped")
	// ErrNotPinned means Unpin was called on a page with no outstanding pin.
	ErrNotPinned = errors.New("vm: page not pinned")
)

type pageInfo struct {
	pfn  units.PFN
	pins int
}

// Space is one process' virtual address space. The page table is a
// page-indexed tlbcache.PageMap holding page-table entries by value: a
// pageInfo is two words, so boxing each one behind a pointer would
// cost a heap object per mapped page on the pin path.
type Space struct {
	pid      units.ProcID
	mem      *phys.Memory
	pages    tlbcache.PageMap[pageInfo]
	pinLimit int // max distinct pinned pages; 0 means unlimited
	pinned   int // distinct pages currently pinned
}

// NewSpace returns an address space for process pid backed by mem.
// pinLimitPages bounds the number of distinct pinned pages; zero means
// unlimited (the paper's "infinite host memory" configuration).
func NewSpace(pid units.ProcID, mem *phys.Memory, pinLimitPages int) *Space {
	s := &Space{}
	s.Reset(pid, mem, pinLimitPages)
	return s
}

// Reset rebinds s as a fresh, empty space for pid over mem, keeping
// the page table's leaves (sim.RunScratch recycles one Space per
// process slot). Frames are not returned: the caller resets mem too.
func (s *Space) Reset(pid units.ProcID, mem *phys.Memory, pinLimitPages int) {
	s.pid, s.mem, s.pinLimit, s.pinned = pid, mem, pinLimitPages, 0
	s.pages.Reset()
}

// PID reports the owning process ID.
func (s *Space) PID() units.ProcID { return s.pid }

// PinLimit reports the pinned-page quota (0 = unlimited).
func (s *Space) PinLimit() int { return s.pinLimit }

// PinnedPages reports how many distinct pages are currently pinned.
func (s *Space) PinnedPages() int { return s.pinned }

// MappedPages reports how many virtual pages have been touched.
func (s *Space) MappedPages() int { return s.pages.Len() }

// Touch ensures vpn is mapped to a physical frame, allocating one on
// first access (demand paging), and returns the frame.
func (s *Space) Touch(vpn units.VPN) (units.PFN, error) {
	if pi := s.pages.Ref(vpn); pi != nil {
		return pi.pfn, nil
	}
	pi, err := s.mapPage(vpn)
	if err != nil {
		return units.NoPFN, err
	}
	return pi.pfn, nil
}

// mapPage backs the unmapped vpn with a fresh frame.
func (s *Space) mapPage(vpn units.VPN) (*pageInfo, error) {
	f, err := s.mem.Alloc()
	if err != nil {
		return nil, fmt.Errorf("vm: mapping page %#x: %w", vpn, err)
	}
	pi, _ := s.pages.Ensure(vpn)
	pi.pfn = f
	return pi, nil
}

// Translate reports the physical frame backing vpn, or ErrNotMapped.
// This is the privileged OS-side translation: user-level code and the
// NIC never call it directly; the device driver does, when installing
// UTLB entries.
func (s *Space) Translate(vpn units.VPN) (units.PFN, error) {
	pi := s.pages.Ref(vpn)
	if pi == nil {
		return units.NoPFN, ErrNotMapped
	}
	return pi.pfn, nil
}

// Pinned reports whether vpn has at least one outstanding pin.
func (s *Space) Pinned(vpn units.VPN) bool { return s.PinCount(vpn) > 0 }

// PinCount reports the number of outstanding pins on vpn.
func (s *Space) PinCount(vpn units.VPN) int {
	if pi := s.pages.Ref(vpn); pi != nil {
		return pi.pins
	}
	return 0
}

// Pin locks vpn into physical memory, mapping it first if needed.
// A page pinned more than once stays resident until Unpin balances
// every Pin. The distinct-page quota is charged on the first pin only.
func (s *Space) Pin(vpn units.VPN) (units.PFN, error) {
	pi := s.pages.Ref(vpn)
	if pi != nil && pi.pins > 0 {
		pi.pins++
		return pi.pfn, nil
	}
	if s.pinLimit > 0 && s.pinned >= s.pinLimit {
		return units.NoPFN, ErrPinLimit
	}
	if pi == nil {
		var err error
		if pi, err = s.mapPage(vpn); err != nil {
			return units.NoPFN, err
		}
	}
	pi.pins++
	s.pinned++
	return pi.pfn, nil
}

// Unpin releases one pin on vpn. The page becomes evictable again when
// its pin count reaches zero.
func (s *Space) Unpin(vpn units.VPN) error {
	pi := s.pages.Ref(vpn)
	if pi == nil || pi.pins == 0 {
		return ErrNotPinned
	}
	pi.pins--
	if pi.pins == 0 {
		s.pinned--
	}
	return nil
}

// Evict unmaps an unpinned page, returning its frame to the allocator.
// It models the OS reclaiming memory under pressure; evicting a pinned
// page is forbidden and returns an error, which is exactly the guarantee
// pinning buys the network interface.
func (s *Space) Evict(vpn units.VPN) error {
	pi := s.pages.Ref(vpn)
	if pi == nil {
		return ErrNotMapped
	}
	if pi.pins > 0 {
		return fmt.Errorf("vm: evicting pinned page %#x", vpn)
	}
	s.mem.Free(pi.pfn)
	s.pages.Delete(vpn)
	return nil
}

// MappedVPNs lists the mapped virtual pages in ascending order.
func (s *Space) MappedVPNs() []units.VPN {
	out := make([]units.VPN, 0, s.pages.Len())
	s.pages.Each(func(vpn units.VPN, _ *pageInfo) { out = append(out, vpn) })
	return out
}

// ReadAt copies n bytes of the process' memory starting at virtual
// address va, touching pages on demand.
func (s *Space) ReadAt(va units.VAddr, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pfn, err := s.Touch(va.PageOf())
		if err != nil {
			return nil, err
		}
		off := int(va.Offset())
		c := units.PageSize - off
		if c > n {
			c = n
		}
		out = append(out, s.mem.Read(pfn.Addr()+units.PAddr(off), c)...)
		va += units.VAddr(c)
		n -= c
	}
	return out, nil
}

// WriteAt copies data into the process' memory at virtual address va,
// touching pages on demand.
func (s *Space) WriteAt(va units.VAddr, data []byte) error {
	for len(data) > 0 {
		pfn, err := s.Touch(va.PageOf())
		if err != nil {
			return err
		}
		off := int(va.Offset())
		c := units.PageSize - off
		if c > len(data) {
			c = len(data)
		}
		s.mem.Write(pfn.Addr()+units.PAddr(off), data[:c])
		va += units.VAddr(c)
		data = data[c:]
	}
	return nil
}

// Release unmaps every page and returns all frames, pinned or not, in
// ascending page order. It models process exit, where the driver
// force-unpins everything.
func (s *Space) Release() {
	s.pages.Each(func(_ units.VPN, pi *pageInfo) { s.mem.Free(pi.pfn) })
	s.pages.Reset()
	s.pinned = 0
}
