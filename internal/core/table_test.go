package core

import (
	"testing"
	"testing/quick"

	"utlb/internal/phys"
	"utlb/internal/units"
)

func newTable(t *testing.T, frames int) (*Table, *phys.Memory, units.PFN) {
	t.Helper()
	mem := phys.NewMemory(int64(frames) * units.PageSize)
	garbage, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(1, mem, garbage), mem, garbage
}

func TestEntryEncoding(t *testing.T) {
	pfn, valid := DecodeEntry(EncodeEntry(0x12345, true))
	if pfn != 0x12345 || !valid {
		t.Errorf("round trip = %#x, %v", pfn, valid)
	}
	pfn, valid = DecodeEntry(EncodeEntry(7, false))
	if pfn != 7 || valid {
		t.Errorf("invalid round trip = %#x, %v", pfn, valid)
	}
}

func TestEntryEncodingProperty(t *testing.T) {
	f := func(pfnRaw uint32, valid bool) bool {
		pfn, v := DecodeEntry(EncodeEntry(units.PFN(pfnRaw), valid))
		return pfn == units.PFN(pfnRaw) && v == valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableInstallLookup(t *testing.T) {
	tbl, _, garbage := newTable(t, 8)
	// Before install: garbage, invalid.
	if pfn, valid := tbl.Lookup(100); valid || pfn != garbage {
		t.Errorf("empty lookup = %d, %v", pfn, valid)
	}
	if err := tbl.Install(100, 5); err != nil {
		t.Fatal(err)
	}
	if pfn, valid := tbl.Lookup(100); !valid || pfn != 5 {
		t.Errorf("Lookup = %d, %v", pfn, valid)
	}
	// Every other entry of the same second-level table, first to last:
	// garbage.
	for vpn := units.VPN(0); vpn < L2Entries; vpn++ {
		if pfn, valid := tbl.Lookup(vpn); vpn != 100 && (valid || pfn != garbage) {
			t.Errorf("neighbour %d = %d, %v", vpn, pfn, valid)
		}
	}
}

func TestTableInvalidate(t *testing.T) {
	tbl, _, garbage := newTable(t, 8)
	tbl.Install(50, 3)
	tbl.Invalidate(50)
	if pfn, valid := tbl.Lookup(50); valid || pfn != garbage {
		t.Errorf("after invalidate = %d, %v", pfn, valid)
	}
	tbl.Invalidate(50)               // idempotent
	tbl.Invalidate(units.VPN(99999)) // missing L2: no-op
	tbl.Install(50, 4)               // reinstall works
	if pfn, _ := tbl.Lookup(50); pfn != 4 {
		t.Errorf("reinstall = %d", pfn)
	}
}

func TestTableL2Sharing(t *testing.T) {
	tbl, mem, _ := newTable(t, 8)
	free := mem.FreeFrames()
	// Two pages in the same 512-entry region share one frame.
	tbl.Install(0, 1)
	tbl.Install(511, 2)
	if used := free - mem.FreeFrames(); used != 1 {
		t.Errorf("second-level frames = %d, want 1", used)
	}
	tbl.Install(512, 3) // next region
	if used := free - mem.FreeFrames(); used != 2 {
		t.Errorf("second-level frames = %d, want 2", used)
	}
}

func TestTableEntryAddr(t *testing.T) {
	tbl, mem, _ := newTable(t, 8)
	if _, ok := tbl.EntryAddr(10); ok {
		t.Error("EntryAddr before any install")
	}
	tbl.Install(10, 7)
	addr, ok := tbl.EntryAddr(10)
	if !ok {
		t.Fatal("EntryAddr missing after install")
	}
	// The NIC reads the same entry the host wrote.
	if pfn, valid := DecodeEntry(mem.ReadWord(addr)); !valid || pfn != 7 {
		t.Errorf("entry via memory = %d, %v", pfn, valid)
	}
	// Consecutive pages are 8 bytes apart: the contiguity prefetch
	// relies on.
	tbl.Install(11, 8)
	addr11, _ := tbl.EntryAddr(11)
	if addr11 != addr+8 {
		t.Errorf("entries not contiguous: %#x vs %#x", addr, addr11)
	}
}

func TestTableOutOfMemory(t *testing.T) {
	tbl, _, _ := newTable(t, 1) // only the garbage frame fits
	if err := tbl.Install(0, 1); err == nil {
		t.Error("Install with exhausted memory succeeded")
	}
}

func TestTableVPNOutOfRangePanics(t *testing.T) {
	tbl, _, _ := newTable(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tbl.Install(VASpacePages, 1)
}

// Property: after any install/invalidate sequence exactly the pages
// last installed hold valid entries, each its last frame.
func TestInstalledCountProperty(t *testing.T) {
	tbl, _, _ := newTable(t, 64)
	valid := map[units.VPN]units.PFN{}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			vpn := units.VPN(op % 2048)
			if op%2 == 0 {
				if err := tbl.Install(vpn, units.PFN(op)); err != nil {
					return true // out of table memory: acceptable, stop
				}
				valid[vpn] = units.PFN(op)
			} else {
				tbl.Invalidate(vpn)
				delete(valid, vpn)
			}
		}
		for vpn := units.VPN(0); vpn < 2048; vpn++ {
			pfn, ok := tbl.Lookup(vpn)
			if want, in := valid[vpn]; ok != in || (in && pfn != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
