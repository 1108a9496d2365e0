package core

import (
	"encoding/binary"
	"fmt"

	"utlb/internal/phys"
	"utlb/internal/units"
)

// Second-level table geometry: each second-level table is one 4 KB
// frame of 512 eight-byte entries, so the top-level directory covers
// the 2^20-page address space with 2048 entries.
const (
	// L2Entries is the number of translations per second-level table.
	L2Entries = units.PageSize / 8
	// DirEntries is the number of top-level directory slots.
	DirEntries = VASpacePages / L2Entries
	// DirSRAMBytes is the NIC SRAM footprint of one process'
	// directory: the paper keeps the top-level directory on the NIC
	// so a cache miss needs only one SRAM reference plus one DMA.
	DirSRAMBytes = DirEntries * 8
)

// Entry encoding: bit 63 marks a valid (pinned) translation; the low
// bits carry the PFN. Invalid entries carry the garbage frame so the
// NIC can DMA without validity checks (§4.2's garbage-page scheme).
const entryValid = uint64(1) << 63

// EncodeEntry packs a translation-table word.
func EncodeEntry(pfn units.PFN, valid bool) uint64 {
	w := uint64(pfn)
	if valid {
		w |= entryValid
	}
	return w
}

// DecodeEntry unpacks a translation-table word.
func DecodeEntry(w uint64) (pfn units.PFN, valid bool) {
	return units.PFN(w &^ entryValid), w&entryValid != 0
}

// Table is one process' Hierarchical-UTLB translation table (§3.3): a
// two-level page table whose second-level frames live in host physical
// memory and whose top-level directory lives in NIC SRAM. Second-level
// entries hold the physical addresses of pages the process has
// explicitly pinned; everything else points at the garbage frame.
type Table struct {
	pid     units.ProcID
	mem     *phys.Memory
	garbage units.PFN

	// dir is the NIC-SRAM directory: physical address of each
	// second-level table frame. present distinguishes slot 0 from an
	// absent table (physical address 0 is a legal frame).
	dir     [DirEntries]units.PAddr
	present [DirEntries]bool
}

// NewTable allocates an empty table for pid. garbage is the pinned
// garbage frame every invalid entry points at.
func NewTable(pid units.ProcID, mem *phys.Memory, garbage units.PFN) *Table {
	return &Table{pid: pid, mem: mem, garbage: garbage}
}

// reset rebinds t as a fresh, empty table for pid over mem, keeping
// its 20 KB directory block (LibScratch recycles one table per process
// slot). Frames are not returned: the caller has reset mem too.
func (t *Table) reset(pid units.ProcID, mem *phys.Memory, garbage units.PFN) {
	*t = Table{pid: pid, mem: mem, garbage: garbage}
}

// PID reports the owning process.
func (t *Table) PID() units.ProcID { return t.pid }

func (t *Table) dirIndex(vpn units.VPN) int {
	if vpn >= VASpacePages {
		panic(fmt.Sprintf("core: vpn %#x outside %d-page space", vpn, VASpacePages))
	}
	return int(vpn) / L2Entries
}

// EntryAddr reports the host physical address of vpn's translation
// entry and whether its second-level table exists. This models the
// NIC's directory probe: one SRAM reference.
func (t *Table) EntryAddr(vpn units.VPN) (units.PAddr, bool) {
	di := t.dirIndex(vpn)
	if !t.present[di] {
		return 0, false
	}
	return t.dir[di] + units.PAddr(int(vpn)%L2Entries)*8, true
}

// ensureL2 materialises the second-level table covering vpn, filling
// it with garbage entries.
func (t *Table) ensureL2(vpn units.VPN) (units.PAddr, error) {
	di := t.dirIndex(vpn)
	if t.present[di] {
		return t.dir[di], nil
	}
	frame, err := t.mem.Alloc()
	if err != nil {
		return 0, fmt.Errorf("core: allocating second-level table: %w", err)
	}
	base := frame.Addr()
	// One page-sized write, not L2Entries word writes: each WriteWord
	// re-checks the range and re-finds the frame's backing.
	var page [units.PageSize]byte
	garbageWord := EncodeEntry(t.garbage, false)
	for i := 0; i < len(page); i += 8 {
		binary.LittleEndian.PutUint64(page[i:], garbageWord)
	}
	t.mem.Write(base, page[:])
	t.dir[di] = base
	t.present[di] = true
	return base, nil
}

// Install writes a valid translation vpn→pfn, creating the covering
// second-level table on demand. Only the device driver calls this:
// the table is protected from user processes.
func (t *Table) Install(vpn units.VPN, pfn units.PFN) error {
	base, err := t.ensureL2(vpn)
	if err != nil {
		return err
	}
	t.mem.WriteWord(base+units.PAddr(int(vpn)%L2Entries)*8, EncodeEntry(pfn, true))
	return nil
}

// Invalidate resets vpn's entry to the garbage frame. Missing
// second-level tables are fine: the entry is already implicitly
// invalid.
func (t *Table) Invalidate(vpn units.VPN) {
	addr, ok := t.EntryAddr(vpn)
	if !ok {
		return
	}
	t.mem.WriteWord(addr, EncodeEntry(t.garbage, false))
}

// Lookup reads vpn's entry directly (host-side, free of NIC costs).
// Used by the driver and tests; the NIC reads entries over the bus.
func (t *Table) Lookup(vpn units.VPN) (units.PFN, bool) {
	addr, ok := t.EntryAddr(vpn)
	if !ok {
		return t.garbage, false
	}
	return DecodeEntry(t.mem.ReadWord(addr))
}
